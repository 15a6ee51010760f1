//! The machine-readable bench record: one JSON document per bench run
//! (`BENCH_<git-sha>.json`), the artifact the perf trajectory is built
//! from. Schema documented in `DESIGN.md` ("Observability layer").

use crate::json::Json;
use crate::memory::ObsSnapshot;

/// Schema version stamped into every record; bump on breaking changes.
///
/// v3 drops v2's top-level `"supervision"` object, which repeated the
/// engine's `engine.panics`, `engine.retries` and
/// `engine.fault_injections` counters; they are read from `"counters"`,
/// where a counter that never fired is absent.
pub const SCHEMA_VERSION: u64 = 3;

/// The instruction set this build targets: `"x86-64-v3"` when AVX2,
/// FMA and BMI2 are all enabled at compile time (the workspace's
/// `.cargo/config.toml` sets them on x86-64), `"x86-64"` for the
/// portable baseline, and the architecture's name elsewhere.
/// [`BenchRecord::to_json`] writes it as the record's `isa`.
pub const BUILD_ISA: &str = if cfg!(all(
    target_feature = "avx2",
    target_feature = "fma",
    target_feature = "bmi2"
)) {
    "x86-64-v3"
} else if cfg!(target_arch = "x86_64") {
    "x86-64"
} else {
    std::env::consts::ARCH
};

/// Wall-clock and throughput of one named section of a bench run
/// (for `all`, one table/figure generator).
#[derive(Debug, Clone, PartialEq)]
pub struct SectionRecord {
    /// Section label (e.g. `all/fig8`).
    pub name: String,
    /// Wall-clock seconds the section took.
    pub wall_s: f64,
    /// Samples processed (0 = unknown).
    pub samples: u64,
}

impl SectionRecord {
    /// Throughput, if the sample count is known and time is measurable.
    pub fn samples_per_sec(&self) -> Option<f64> {
        if self.samples == 0 || self.wall_s <= 0.0 {
            None
        } else {
            Some(self.samples as f64 / self.wall_s)
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(self.name.clone())),
            ("wall_s".into(), Json::Num(self.wall_s)),
            ("samples".into(), Json::int(self.samples)),
            (
                "samples_per_sec".into(),
                self.samples_per_sec().map_or(Json::Null, Json::Num),
            ),
        ])
    }
}

/// One bench run, ready to serialize.
#[derive(Debug, Clone, Default)]
pub struct BenchRecord {
    /// Short git SHA of the working tree (`"unknown"` outside a repo).
    pub git_sha: String,
    /// The binary that produced the record (e.g. `all`).
    pub bin: String,
    /// Worker thread count of the engine.
    pub threads: usize,
    /// Experiment scale name (`tiny`/`quick`/`standard`/`full`).
    pub scale: String,
    /// Per-section wall-clock and throughput.
    pub sections: Vec<SectionRecord>,
    /// Everything the run's recorder aggregated.
    pub snapshot: ObsSnapshot,
}

impl BenchRecord {
    /// Sum of the section wall-clocks (CPU-seconds of scheduled work;
    /// with threads > 1 this exceeds the run's elapsed time).
    pub fn total_wall_s(&self) -> f64 {
        self.sections.iter().map(|s| s.wall_s).sum()
    }

    /// Serializes the record as a compact JSON document.
    pub fn to_json(&self) -> String {
        let sections = Json::Arr(self.sections.iter().map(SectionRecord::to_json).collect());
        let counters = Json::Obj(
            self.snapshot
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::int(v)))
                .collect(),
        );
        let series = Json::Obj(
            self.snapshot
                .series
                .iter()
                .map(|(k, r)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("count".into(), Json::int(r.count())),
                            ("mean".into(), Json::Num(r.mean())),
                            ("std_dev".into(), Json::Num(r.std_dev())),
                            ("min".into(), Json::Num(r.min())),
                            ("max".into(), Json::Num(r.max())),
                        ]),
                    )
                })
                .collect(),
        );
        let spans = Json::Obj(
            self.snapshot
                .spans
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("count".into(), Json::int(s.count)),
                            ("total_s".into(), Json::Num(s.total.as_secs_f64())),
                            ("min_s".into(), Json::Num(s.min.as_secs_f64())),
                            ("max_s".into(), Json::Num(s.max.as_secs_f64())),
                        ]),
                    )
                })
                .collect(),
        );
        let epochs = Json::Arr(
            self.snapshot
                .epochs
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("context".into(), Json::str(e.context.clone())),
                        ("epoch".into(), Json::int(e.metrics.epoch as u64)),
                        ("samples".into(), Json::int(e.metrics.samples)),
                        ("loss".into(), e.metrics.loss.map_or(Json::Null, Json::Num)),
                        (
                            "train_accuracy".into(),
                            e.metrics.train_accuracy.map_or(Json::Null, Json::Num),
                        ),
                        ("weight_updates".into(), Json::int(e.metrics.weight_updates)),
                        ("spikes".into(), Json::int(e.metrics.spikes)),
                    ])
                })
                .collect(),
        );
        let histograms = Json::Obj(
            self.snapshot
                .histograms
                .iter()
                .map(|(k, h)| {
                    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::int);
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("count".into(), Json::int(h.count())),
                            ("min_ns".into(), opt(h.min())),
                            ("max_ns".into(), opt(h.max())),
                            ("mean_ns".into(), opt(h.mean_ns())),
                            ("p50_ns".into(), opt(h.p50())),
                            ("p95_ns".into(), opt(h.p95())),
                            ("p99_ns".into(), opt(h.p99())),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("schema_version".into(), Json::int(SCHEMA_VERSION)),
            ("git_sha".into(), Json::str(self.git_sha.clone())),
            ("bin".into(), Json::str(self.bin.clone())),
            ("threads".into(), Json::int(self.threads as u64)),
            ("scale".into(), Json::str(self.scale.clone())),
            ("isa".into(), Json::str(BUILD_ISA)),
            ("total_wall_s".into(), Json::Num(self.total_wall_s())),
            ("sections".into(), sections),
            ("counters".into(), counters),
            ("series".into(), series),
            ("spans".into(), spans),
            ("histograms".into(), histograms),
            ("epochs".into(), epochs),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryRecorder, Recorder};
    use std::time::Duration;

    #[test]
    fn throughput_needs_samples_and_time() {
        let mut s = SectionRecord {
            name: "x".into(),
            wall_s: 2.0,
            samples: 100,
        };
        assert_eq!(s.samples_per_sec(), Some(50.0));
        s.samples = 0;
        assert_eq!(s.samples_per_sec(), None);
        s.samples = 1;
        s.wall_s = 0.0;
        assert_eq!(s.samples_per_sec(), None);
    }

    #[test]
    fn record_serializes_every_block() {
        let rec = MemoryRecorder::new();
        rec.add("spikes", 9);
        rec.add("engine.panics", 3);
        rec.add("engine.retries", 2);
        rec.observe("accuracy", 0.5);
        rec.record_span("fit", Duration::from_millis(250));
        rec.record_latency("serve.latency_ns", 64);
        rec.record_epoch(
            "mlp",
            &crate::EpochMetrics {
                epoch: 1,
                samples: 10,
                loss: Some(0.25),
                train_accuracy: Some(0.9),
                weight_updates: 40,
                spikes: 0,
            },
        );
        let record = BenchRecord {
            git_sha: "abc1234".into(),
            bin: "all".into(),
            threads: 4,
            scale: "tiny".into(),
            sections: vec![SectionRecord {
                name: "all/table3".into(),
                wall_s: 1.5,
                samples: 300,
            }],
            snapshot: rec.snapshot(),
        };
        let json = record.to_json();
        assert!(!json.contains("supervision"), "{json}");
        assert_eq!(json.matches("engine.panics").count(), 1, "{json}");
        for needle in [
            "\"schema_version\":3",
            // The supervision counters appear once, in `counters`.
            "\"engine.panics\":3",
            "\"engine.retries\":2",
            "\"git_sha\":\"abc1234\"",
            "\"threads\":4",
            "\"scale\":\"tiny\"",
            "\"total_wall_s\":1.5",
            "\"name\":\"all/table3\"",
            "\"samples_per_sec\":200",
            "\"spikes\":9",
            "\"accuracy\"",
            "\"fit\"",
            "\"train_accuracy\":0.9",
            "\"weight_updates\":40",
            "\"serve.latency_ns\"",
            "\"p50_ns\":64",
            "\"p99_ns\":64",
        ] {
            assert!(json.contains(needle), "{needle} missing in {json}");
        }
        let isa = format!("\"isa\":\"{BUILD_ISA}\"");
        assert!(json.contains(&isa), "{isa} missing in {json}");
    }

    #[test]
    fn total_wall_sums_sections() {
        let record = BenchRecord {
            sections: vec![
                SectionRecord {
                    name: "a".into(),
                    wall_s: 1.0,
                    samples: 0,
                },
                SectionRecord {
                    name: "b".into(),
                    wall_s: 2.5,
                    samples: 0,
                },
            ],
            ..BenchRecord::default()
        };
        assert!((record.total_wall_s() - 3.5).abs() < 1e-12);
    }
}
