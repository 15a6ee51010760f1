//! In-memory aggregation: [`MemoryRecorder`] and its [`ObsSnapshot`].

use crate::hist::LatencyHistogram;
use crate::recorder::{EpochMetrics, Recorder};
use nc_substrate::stats::Running;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Acquires the recorder mutex, recovering the inner value if a
/// previous holder panicked. Every critical section here is a single
/// map insert or read, so a poisoned lock still holds consistent data
/// and observability should never take the process down.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Aggregated timings of one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed timings recorded.
    pub count: u64,
    /// Total wall-clock across all timings.
    pub total: Duration,
    /// Shortest single timing.
    pub min: Duration,
    /// Longest single timing.
    pub max: Duration,
}

impl SpanStats {
    fn record(&mut self, wall: Duration) {
        self.count += 1;
        self.total += wall;
        self.min = self.min.min(wall);
        self.max = self.max.max(wall);
    }

    /// Mean wall-clock per timing.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / u32::try_from(self.count).unwrap_or(u32::MAX)
        }
    }
}

/// One [`Recorder::record_epoch`] report.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// The context label the trainer reported under.
    pub context: String,
    /// The epoch's metrics.
    pub metrics: EpochMetrics,
}

/// Everything a [`MemoryRecorder`] has aggregated, cloned out for
/// reporting. Maps are ordered so rendering is deterministic.
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Observation series by name (Welford aggregates).
    pub series: BTreeMap<String, Running>,
    /// Span timings by name.
    pub spans: BTreeMap<String, SpanStats>,
    /// Every epoch report, in arrival order.
    pub epochs: Vec<EpochRecord>,
    /// Latency histograms by name (integer-nanosecond samples).
    pub histograms: BTreeMap<String, LatencyHistogram>,
}

/// A thread-safe recorder that aggregates everything in memory — the
/// backing store for `--json` bench records and for tests asserting on
/// instrumentation.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    inner: Mutex<ObsSnapshot>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clones out everything aggregated so far.
    pub fn snapshot(&self) -> ObsSnapshot {
        lock_or_recover(&self.inner).clone()
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        lock_or_recover(&self.inner)
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Aggregated timings of a span name, if it was ever recorded.
    pub fn span(&self, name: &str) -> Option<SpanStats> {
        lock_or_recover(&self.inner).spans.get(name).copied()
    }

    /// Clones out a named latency histogram, if any sample ever landed
    /// in it.
    pub fn histogram(&self, name: &str) -> Option<LatencyHistogram> {
        lock_or_recover(&self.inner).histograms.get(name).cloned()
    }
}

impl Recorder for MemoryRecorder {
    fn record_span(&self, name: &str, wall: Duration) {
        let mut inner = lock_or_recover(&self.inner);
        inner
            .spans
            .entry(name.to_string())
            .or_insert(SpanStats {
                count: 0,
                total: Duration::ZERO,
                min: Duration::MAX,
                max: Duration::ZERO,
            })
            .record(wall);
    }

    fn add(&self, counter: &str, delta: u64) {
        let mut inner = lock_or_recover(&self.inner);
        *inner.counters.entry(counter.to_string()).or_insert(0) += delta;
    }

    fn observe(&self, series: &str, value: f64) {
        let mut inner = lock_or_recover(&self.inner);
        inner
            .series
            .entry(series.to_string())
            .or_default()
            .push(value);
    }

    fn record_epoch(&self, context: &str, metrics: &EpochMetrics) {
        let mut inner = lock_or_recover(&self.inner);
        inner.epochs.push(EpochRecord {
            context: context.to_string(),
            metrics: *metrics,
        });
    }

    fn record_latency(&self, hist: &str, nanos: u64) {
        let mut inner = lock_or_recover(&self.inner);
        inner
            .histograms
            .entry(hist.to_string())
            .or_default()
            .record(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let rec = MemoryRecorder::new();
        rec.add("spikes", 3);
        rec.add("spikes", 4);
        assert_eq!(rec.counter("spikes"), 7);
        assert_eq!(rec.counter("absent"), 0);
    }

    #[test]
    fn spans_aggregate_by_name() {
        let rec = MemoryRecorder::new();
        rec.record_span("fit", Duration::from_millis(10));
        rec.record_span("fit", Duration::from_millis(30));
        let s = rec.span("fit").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total, Duration::from_millis(40));
        assert_eq!(s.min, Duration::from_millis(10));
        assert_eq!(s.max, Duration::from_millis(30));
        assert_eq!(s.mean(), Duration::from_millis(20));
    }

    #[test]
    fn series_use_running_aggregation() {
        let rec = MemoryRecorder::new();
        rec.observe("acc", 0.5);
        rec.observe("acc", 1.0);
        let snap = rec.snapshot();
        let r = &snap.series["acc"];
        assert_eq!(r.count(), 2);
        assert!((r.mean() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn epochs_arrive_in_order() {
        let rec = MemoryRecorder::new();
        for epoch in 0..3 {
            rec.record_epoch(
                "mlp",
                &EpochMetrics {
                    epoch,
                    ..EpochMetrics::default()
                },
            );
        }
        let snap = rec.snapshot();
        assert_eq!(snap.epochs.len(), 3);
        assert_eq!(snap.epochs[2].metrics.epoch, 2);
    }

    #[test]
    fn latency_samples_aggregate_by_histogram_name() {
        let rec = MemoryRecorder::new();
        rec.record_latency("serve.latency_ns", 40);
        rec.record_latency("serve.latency_ns", 80);
        rec.record_latency("other", 7);
        let h = rec.histogram("serve.latency_ns").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(40));
        assert_eq!(h.max(), Some(80));
        assert!(rec.histogram("absent").is_none());
        assert_eq!(rec.snapshot().histograms.len(), 2);
    }

    #[test]
    fn recording_is_thread_safe() {
        let rec = MemoryRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        rec.add("n", 1);
                    }
                });
            }
        });
        assert_eq!(rec.counter("n"), 400);
    }
}
