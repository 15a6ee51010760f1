//! In-memory span recording for the traced run.
//!
//! Spans wrap calls into the library's public functions from the
//! benchmark's side. They are kept in memory and summarised once the run
//! ends: per span name, the call count, the total time, and the self
//! time (span time minus the time its direct child spans cover). A
//! disabled tracer never reads the clock, so untraced runs pay one
//! branch per call site.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

#[derive(Debug)]
struct Record {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Spans {
    records: Vec<Record>,
    open: Vec<usize>,
}

/// Aggregate of every span recorded under one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Completed spans.
    pub calls: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the part covered by direct children, ns.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean span duration in microseconds (0 when never entered).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// A span recorder shared between the benchmark loop and the timing
/// wrappers it hands to the server (hence `Arc` + `Mutex`).
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Arc<Mutex<Spans>>,
}

impl Tracer {
    /// A tracer that records when `enabled` and otherwise only runs the
    /// wrapped closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Spans {
                records: Vec::new(),
                open: Vec::new(),
            })),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
            let id = spans.records.len();
            let parent = spans.open.last().copied();
            spans.records.push(Record {
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            spans.open.push(id);
            id
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.open.pop();
        let record = &mut spans.records[id];
        record.start_ns = start_ns;
        record.end_ns = end_ns;
        out
    }

    /// Per-name totals with self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut child_ns = vec![0u64; spans.records.len()];
        for record in &spans.records {
            if let Some(parent) = record.parent {
                child_ns[parent] += record.end_ns - record.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (record, children) in spans.records.iter().zip(child_ns) {
            let wall = record.end_ns - record.start_ns;
            let entry = totals.entry(record.name).or_default();
            entry.calls += 1;
            entry.total_ns += wall;
            entry.self_ns += wall.saturating_sub(children);
        }
        totals
    }

    /// Writes the span summary to stderr.
    pub fn write_summary(&self) {
        eprintln!(
            "{:<28} {:>10} {:>14} {:>14}",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, t) in self.totals() {
            eprintln!(
                "{name:<28} {:>10} {:>14.3} {:>14.3}",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || {
            tracer.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = tracer.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", || 7), 7);
        assert!(tracer.totals().is_empty());
    }
}
