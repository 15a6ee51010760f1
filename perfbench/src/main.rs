//! End-to-end and per-layer benchmark of the neurocmp serving and mesh paths.
//!
//! ```text
//! perfbench --workload <serve_zipf|mesh_healthy|mesh_faulty> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload sets up, runs one warm-up round, then repeats a fixed
//! round of work until the time budget is spent, setting up again a few
//! times spread over the window so set-up time is sampled alongside.
//! Outputs are checked against the library's own reference paths after
//! the timed window. The last stdout line is one
//! JSON object: `--trace 0` prints the end-to-end metrics, `--trace 1`
//! (a separate run with spans on) prints the per-layer metrics.

mod mesh;
mod serve;
mod trace;

use nc_dataset::digits::DigitsSpec;
use nc_dataset::{Dataset, Difficulty};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "fraction"),
    ("energy_uj_per_image", "uJ"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.submit_us", "us"),
    ("serve.drain_ms", "ms"),
    ("serve.dispatch_self_ms", "ms"),
    ("serve.wait_ticks_p50", "count"),
    ("serve.wait_ticks_p99", "count"),
    ("serve.stall_flushes", "count"),
    ("serve.items_per_batch.qmlp", "count"),
    ("serve.items_per_batch.snnwt", "count"),
    ("serve.items_per_batch.wot", "count"),
    ("serve.items_per_batch.mlp", "count"),
    ("model.qmlp.us_per_item", "us"),
    ("model.snnwt.us_per_item", "us"),
    ("model.wot.us_per_item", "us"),
    ("model.mlp.us_per_item", "us"),
    ("engine.jobs", "count"),
    ("engine.dispatch_us.inline", "us"),
    ("engine.dispatch_us.t2", "us"),
    ("mesh.present_us", "us"),
    ("mesh.ns_per_neuron_update", "ns"),
    ("mesh.neuron_updates", "count"),
    ("mesh.hops", "count"),
    ("mesh.packets", "count"),
    ("mesh.dropped_packets", "count"),
    ("mesh.sram_rows", "count"),
    ("mesh.partition_ms", "ms"),
    ("mesh.place_ms", "ms"),
    ("mesh.compile_ms", "ms"),
    ("snn.reference_us", "us"),
    ("setup.stdp_ms", "ms"),
    ("setup.dataset_ms", "ms"),
    ("setup.prepare_ms.qmlp", "ms"),
    ("setup.prepare_ms.snnwt", "ms"),
    ("setup.prepare_ms.wot", "ms"),
    ("setup.prepare_ms.mlp", "ms"),
    ("faults.dead_links", "count"),
    ("faults.dead_routers", "count"),
    ("obs.hist_gap_pct", "%"),
    ("trace.throughput_per_s", "1/s"),
];

/// Seed of the training images. Training data is part of the workload
/// definition (every run deploys the same trained models); the `--seed`
/// argument draws the test images and the request stream.
const TRAIN_SEED: u64 = 0xD161;

/// `train_images` fixed training digits and `test_images` test digits
/// drawn from `seed`, at the experiments' digit difficulty.
pub fn digits(train_images: usize, test_images: usize, seed: u64) -> (Dataset, Dataset) {
    let spec = |train, test, seed| DigitsSpec {
        train,
        test,
        seed,
        difficulty: Difficulty::hard(),
    };
    let (train, _) = spec(train_images, 0, TRAIN_SEED).generate();
    let (_, test) = spec(0, test_images, seed).generate();
    (train, test)
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Options {
    fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err("--seconds must be in (0, 120]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a workload hands back: correctness, operation counts, and the
/// metrics it measured (by name; units come from the catalogues above).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check held.
    pub correct: bool,
    /// Operations attempted inside the measured rounds.
    pub attempted: u64,
    /// Operations that failed inside the measured rounds.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Median of `values` (0 for an empty slice).
///
/// Latency percentiles are taken per round and reported as their median
/// over the rounds: a round's p99 is itself a tail, so a mean over rounds
/// follows the few rounds that caught a stall.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `values` without their lowest and highest tenth (0 for an
/// empty slice).
///
/// Rounds repeat identical work, so their spread is the host's doing.
/// The host this benchmark was tuned on drifts, over seconds to
/// minutes, between phases up to about 1.6× apart in speed. A mean
/// moves smoothly with the share of a run spent in each phase, where a
/// median jumps between phases and a best-of estimate swings with
/// whether a run caught a short fast phase; the trim drops one-off
/// stalls.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    let kept = &sorted[cut..sorted.len() - cut];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Nearest-rank percentile of ascending `sorted` samples: the sample at
/// rank `ceil(q * n)` — the rank rule `LatencyHistogram` uses.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Wall times, in seconds, of the measured rounds and of every set-up,
/// and the peak resident set size after the warm-up round.
#[derive(Debug, Default)]
pub struct Timings {
    pub rounds: Vec<f64>,
    pub setups: Vec<f64>,
    /// `VmHWM` in MB once set-up and one round have run: the program's
    /// own peak. It is read before the timed set-ups, each of which holds
    /// a second copy of the set-up's data while it runs and leaves the
    /// heap in a state that differs from run to run.
    pub peak_rss_mb: f64,
}

/// Runs `round` once as a warm-up (`round(false)`), then measured
/// (`round(true)`) until the window of `seconds` is spent (at least
/// three rounds). `first_setup` is the wall time of the set-up the rounds
/// run on; `extra_setups` more set-ups run at evenly spaced points of
/// the window and are only timed, so set-up time samples the same host
/// phases the rounds do. The window counts rounds and set-ups alike, so
/// a run lasts about as long whatever its set-up costs.
pub fn timed_rounds(
    seconds: f64,
    first_setup: f64,
    extra_setups: usize,
    mut setup: impl FnMut() -> Result<(), String>,
    mut round: impl FnMut(bool) -> Result<(), String>,
) -> Result<Timings, String> {
    let mut timings = Timings {
        rounds: Vec::new(),
        setups: vec![first_setup],
        peak_rss_mb: 0.0,
    };
    let time = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<f64, String> {
        let started = Instant::now();
        f()?;
        Ok(started.elapsed().as_secs_f64())
    };
    round(false)?;
    timings.peak_rss_mb = peak_rss_mb()?;
    let mut measured = 0.0;
    while timings.rounds.len() < 3 || measured < seconds {
        let due = timings.setups.len() - 1;
        if due < extra_setups && measured >= seconds * due as f64 / extra_setups as f64 {
            let wall = time(&mut setup)?;
            timings.setups.push(wall);
            measured += wall;
        }
        let wall = time(&mut || round(true))?;
        timings.rounds.push(wall);
        measured += wall;
    }
    Ok(timings)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM value: {e}"))?;
    Ok(kb / 1024.0)
}

fn render(outcome: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run(options: &Options) -> Result<Outcome, String> {
    let tracer = trace::Tracer::new(options.trace);
    let mut outcome = match options.workload.as_str() {
        "serve_zipf" => serve::run(options, &tracer)?,
        "mesh_healthy" => mesh::run(options, &tracer, false)?,
        "mesh_faulty" => mesh::run(options, &tracer, true)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if options.trace {
        outcome
            .metrics
            .insert("engine.dispatch_us.inline", serve::dispatch_us(1));
        outcome
            .metrics
            .insert("engine.dispatch_us.t2", serve::dispatch_us(2));
        tracer.write_summary();
    }
    let catalogue = if options.trace { PER_LAYER } else { END_TO_END };
    for name in outcome.metrics.keys() {
        if !catalogue.iter().any(|(known, _)| known == name) {
            return Err(format!("workload reported uncatalogued metric {name}"));
        }
    }
    if let Some((name, value)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite: {value}"));
    }
    // End-to-end metrics are compared as shares of their median, so each
    // must be measured, and positive, on every workload.
    if !options.trace {
        if let Some((name, _)) = END_TO_END
            .iter()
            .find(|(name, _)| outcome.metrics.get(name).is_none_or(|v| *v <= 0.0))
        {
            return Err(format!(
                "end-to-end metric {name} is missing or not positive"
            ));
        }
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(outcome) => {
            let catalogue = if options.trace { PER_LAYER } else { END_TO_END };
            println!("{}", render(&outcome, catalogue));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: a correctness check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut values: Vec<f64> = (1..=18).map(f64::from).collect();
        values.extend([1000.0, -1000.0]);
        assert_eq!(trimmed_mean(&values), 9.5);
        assert_eq!(trimmed_mean(&[4.0, 2.0]), 3.0);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 50);
        assert_eq!(nearest_rank(&sorted, 0.99), 99);
        assert_eq!(nearest_rank(&sorted, 1.0), 100);
    }

    #[test]
    fn options_require_every_flag() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = Options::parse(args("--workload x --seed 3 --seconds 2 --trace 1").into_iter())
            .unwrap();
        assert_eq!((ok.seed, ok.trace), (3, true));
        assert!(Options::parse(args("--workload x --seconds 2").into_iter()).is_err());
        assert!(Options::parse(args("--workload x --seed 1 --seconds 0").into_iter()).is_err());
        assert!(
            Options::parse(args("--workload x --seed 1 --seconds 2 --trace 2").into_iter())
                .is_err()
        );
    }

    #[test]
    fn render_fills_every_catalogued_metric() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 5,
            ..Outcome::default()
        };
        outcome.metrics.insert("setup_s", 0.25);
        let line = render(&outcome, END_TO_END);
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"energy_uj_per_image\": {\"value\": 0.0"));
    }
}
