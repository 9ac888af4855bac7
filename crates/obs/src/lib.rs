//! `freshen-obs`: std-only instrumentation for the freshen workspace.
//!
//! Everything hangs off a [`Recorder`], a cheap cloneable handle that is
//! either *enabled* (backed by a shared registry) or *disabled* (every
//! operation is a single branch on an `Option`). Instrumented code holds a
//! `Recorder` — or metric handles pre-registered from one — and never checks
//! an "is observability on?" flag itself:
//!
//! ```
//! use freshen_obs::Recorder;
//!
//! let rec = Recorder::enabled();
//! let events = rec.counter("events_total");
//! {
//!     let mut span = rec.span("event_loop");
//!     span.arg("scenario", "table2");
//!     events.add(3);
//! }
//! rec.gauge("pf").set(0.97);
//! let metrics = rec.metrics_json().unwrap();
//! assert!(metrics.contains("\"events_total\": 3"));
//! let trace = rec.chrome_trace_json().unwrap();
//! assert!(trace.contains("\"event_loop\""));
//! ```
//!
//! Design constraints (see DESIGN.md §2 and §7):
//!
//! * **No dependencies.** Locks are `std::sync::Mutex`; exporters emit
//!   JSON through the [`json`] writer, which the rest of the workspace
//!   shares. Embedding `freshen-obs` adds nothing to a crate's
//!   dependency tree.
//! * **Disabled means free.** A disabled `Recorder` and its handles are
//!   `Option::None` all the way down; hot loops pay one predictable branch.
//! * **Bounded memory.** The trace buffer and journal have hard capacities
//!   and count drops instead of growing with run length.

mod export;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod slo;
pub mod timeseries;
pub mod trace;

pub use journal::{Journal, JournalEntry};
pub use metrics::{count_buckets, duration_us_buckets, Counter, Gauge, Histogram};
pub use slo::{Health, SloAlert, SloConfig, SloEngine, SloState};
pub use timeseries::{EpochSample, TimeSeries, TimeSeriesState, DEFAULT_SERIES_CAPACITY};
pub use trace::{SpanGuard, TraceBuffer, TraceEvent};

use metrics::HistogramCore;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default cap on buffered span/instant events (~a few MB worst case).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;
/// Default cap on retained journal entries.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8_192;

/// Shared state behind an enabled [`Recorder`].
#[derive(Debug)]
pub(crate) struct RecorderInner {
    pub(crate) epoch: Instant,
    pub(crate) counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    pub(crate) gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    pub(crate) histograms: Mutex<BTreeMap<&'static str, Arc<HistogramCore>>>,
    pub(crate) trace: Arc<TraceBuffer>,
    pub(crate) journal: Journal,
}

/// Handle to the instrumentation registry; `Default` is the disabled no-op.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

impl Recorder {
    /// A recorder that discards everything. Handles minted from it are
    /// no-ops; `metrics_json`/`chrome_trace_json` return `None`.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A live recorder with default buffer capacities.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY, DEFAULT_JOURNAL_CAPACITY)
    }

    /// A live recorder with explicit trace/journal capacities.
    pub fn with_capacity(trace_capacity: usize, journal_capacity: usize) -> Self {
        Recorder {
            inner: Some(Arc::new(RecorderInner {
                epoch: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                trace: Arc::new(TraceBuffer::new(trace_capacity)),
                journal: Journal::new(journal_capacity),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register (or look up) the counter `name` and return a handle to it.
    /// Registration takes a lock; cache the handle outside hot loops.
    pub fn counter(&self, name: &'static str) -> Counter {
        match &self.inner {
            None => Counter::noop(),
            Some(inner) => {
                let mut map = inner.counters.lock().unwrap();
                let cell = map
                    .entry(name)
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)));
                Counter::live(cell.clone())
            }
        }
    }

    /// Register (or look up) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match &self.inner {
            None => Gauge::noop(),
            Some(inner) => {
                let mut map = inner.gauges.lock().unwrap();
                let cell = map
                    .entry(name)
                    .or_insert_with(|| Arc::new(AtomicU64::new(f64::NAN.to_bits())));
                Gauge::live(cell.clone())
            }
        }
    }

    /// Register (or look up) the histogram `name`. `bounds` are the upper
    /// bucket edges and are only consulted on first registration.
    pub fn histogram(&self, name: &'static str, bounds: &[f64]) -> Histogram {
        match &self.inner {
            None => Histogram::noop(),
            Some(inner) => {
                let mut map = inner.histograms.lock().unwrap();
                let core = map
                    .entry(name)
                    .or_insert_with(|| Arc::new(HistogramCore::new(bounds)));
                Histogram::live(core.clone())
            }
        }
    }

    /// Start a span; the returned guard records a complete trace event on
    /// drop. Bind it to a named variable (`let _span = ...`), not `_`.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::noop(),
            Some(inner) => SpanGuard::live(inner.trace.clone(), name, inner.epoch),
        }
    }

    /// Append a structured entry to the bounded journal.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, &dyn std::fmt::Display)]) {
        if let Some(inner) = &self.inner {
            let ts_us = inner.epoch.elapsed().as_micros() as u64;
            inner.journal.push(JournalEntry {
                name,
                ts_us,
                fields: fields.iter().map(|(k, v)| (*k, v.to_string())).collect(),
            });
        }
    }

    /// Read back a counter's current value (for report aggregation).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let map = inner.counters.lock().unwrap();
        map.get(name)
            .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Read back a gauge's current value.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        let map = inner.gauges.lock().unwrap();
        map.get(name)
            .map(|c| f64::from_bits(c.load(std::sync::atomic::Ordering::Relaxed)))
            .filter(|v| v.is_finite())
    }

    /// Serialize the full metrics snapshot as a JSON object.
    pub fn metrics_json(&self) -> Option<String> {
        self.inner.as_ref().map(|i| export::metrics_json(i))
    }

    /// Serialize buffered spans and journal entries as a Chrome-trace JSON
    /// array (loads in Perfetto / `chrome://tracing`).
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.inner.as_ref().map(|i| export::chrome_trace_json(i))
    }

    /// Serialize the metrics snapshot in the Prometheus text exposition
    /// format (see [`prometheus`] for the family layout).
    pub fn metrics_prometheus(&self) -> Option<String> {
        self.inner.as_ref().map(|i| prometheus::render(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny recursive-descent JSON well-formedness check so the hand-rolled
    /// exporters are validated without a JSON dependency.
    fn check_json(input: &str) {
        struct P<'a>(&'a [u8], usize);
        impl P<'_> {
            fn ws(&mut self) {
                while self.1 < self.0.len() && self.0[self.1].is_ascii_whitespace() {
                    self.1 += 1;
                }
            }
            fn peek(&mut self) -> u8 {
                self.ws();
                *self.0.get(self.1).unwrap_or(&0)
            }
            fn eat(&mut self, c: u8) {
                assert_eq!(
                    self.peek(),
                    c,
                    "expected {:?} at byte {}",
                    c as char,
                    self.1
                );
                self.1 += 1;
            }
            fn value(&mut self) {
                match self.peek() {
                    b'{' => {
                        self.eat(b'{');
                        if self.peek() != b'}' {
                            loop {
                                self.string();
                                self.eat(b':');
                                self.value();
                                if self.peek() == b',' {
                                    self.eat(b',');
                                } else {
                                    break;
                                }
                            }
                        }
                        self.eat(b'}');
                    }
                    b'[' => {
                        self.eat(b'[');
                        if self.peek() != b']' {
                            loop {
                                self.value();
                                if self.peek() == b',' {
                                    self.eat(b',');
                                } else {
                                    break;
                                }
                            }
                        }
                        self.eat(b']');
                    }
                    b'"' => self.string(),
                    b't' => self.lit("true"),
                    b'f' => self.lit("false"),
                    b'n' => self.lit("null"),
                    _ => self.number(),
                }
            }
            fn string(&mut self) {
                self.eat(b'"');
                while self.0[self.1] != b'"' {
                    if self.0[self.1] == b'\\' {
                        self.1 += 1;
                    }
                    self.1 += 1;
                }
                self.1 += 1;
            }
            fn lit(&mut self, s: &str) {
                self.ws();
                assert_eq!(&self.0[self.1..self.1 + s.len()], s.as_bytes());
                self.1 += s.len();
            }
            fn number(&mut self) {
                self.ws();
                let start = self.1;
                while self.1 < self.0.len()
                    && matches!(
                        self.0[self.1],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.1 += 1;
                }
                assert!(self.1 > start, "expected number at byte {}", start);
            }
        }
        let mut p = P(input.as_bytes(), 0);
        p.value();
        p.ws();
        assert_eq!(p.1, input.len(), "trailing bytes after JSON value");
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.counter("c").inc();
        rec.gauge("g").set(1.0);
        rec.histogram("h", &count_buckets()).observe(1.0);
        rec.event("e", &[("k", &1)]);
        let _span = rec.span("s");
        assert!(rec.metrics_json().is_none());
        assert!(rec.chrome_trace_json().is_none());
        assert!(rec.counter_value("c").is_none());
    }

    #[test]
    fn handles_share_state_across_clones() {
        let rec = Recorder::enabled();
        let a = rec.counter("shared");
        let b = rec.clone().counter("shared");
        a.add(2);
        b.add(3);
        assert_eq!(rec.counter_value("shared"), Some(5));
    }

    #[test]
    fn metrics_snapshot_is_valid_json_with_expected_keys() {
        let rec = Recorder::enabled();
        rec.counter("events_total").add(42);
        rec.gauge("pf").set(0.93);
        let h = rec.histogram("queue_depth", &count_buckets());
        for i in 0..100 {
            h.observe((i % 10) as f64);
        }
        rec.event("dispatch", &[("kind", &"update"), ("t", &1.25)]);
        let json = rec.metrics_json().unwrap();
        check_json(&json);
        for key in [
            "\"events_total\": 42",
            "\"pf\": 0.93",
            "\"queue_depth\"",
            "\"p50\"",
            "\"p95\"",
            "\"p99\"",
            "\"journal\"",
            "\"dispatch\"",
            "\"elapsed_seconds\"",
        ] {
            assert!(json.contains(key), "snapshot missing {key}: {json}");
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_and_preserves_span_nesting() {
        let rec = Recorder::enabled();
        {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        rec.event("milestone", &[("iter", &3)]);
        let json = rec.chrome_trace_json().unwrap();
        check_json(&json);
        assert!(json.contains("\"outer\""));
        assert!(json.contains("\"inner\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"i\""));
        // Inner drops first so it serializes first; outer must contain it.
        let inner_pos = json.find("\"inner\"").unwrap();
        let outer_pos = json.find("\"outer\"").unwrap();
        assert!(
            inner_pos < outer_pos,
            "inner span should be recorded before outer"
        );
    }

    #[test]
    fn empty_recorder_exports_are_valid_json() {
        let rec = Recorder::enabled();
        check_json(&rec.metrics_json().unwrap());
        check_json(&rec.chrome_trace_json().unwrap());
    }

    #[test]
    fn journal_overflow_is_counted_in_every_export_path() {
        let rec = Recorder::with_capacity(DEFAULT_TRACE_CAPACITY, 4);
        for i in 0..10u64 {
            rec.event("tick", &[("i", &i)]);
        }
        rec.histogram("h", &count_buckets()).observe(f64::NAN);

        let metrics = rec.metrics_json().unwrap();
        check_json(&metrics);
        assert!(metrics.contains("\"journal_dropped\": 6"), "{metrics}");
        assert!(metrics.contains("\"dropped\": 1"), "{metrics}");

        let trace = rec.chrome_trace_json().unwrap();
        check_json(&trace);
        assert!(trace.contains("\"obs.dropped\""), "{trace}");
        assert!(trace.contains("\"journal_dropped\": \"6\""), "{trace}");
        assert!(trace.contains("\"histogram_dropped\": \"1\""), "{trace}");
        assert!(trace.contains("\"trace_dropped\": \"0\""), "{trace}");

        let prom = rec.metrics_prometheus().unwrap();
        crate::prometheus::validate_exposition(&prom).unwrap();
        assert!(prom.contains("freshen_journal_dropped 6"), "{prom}");
        assert!(prom.contains("h_dropped 1"), "{prom}");
    }

    #[test]
    fn concurrent_recording_through_one_recorder() {
        let rec = Recorder::enabled();
        std::thread::scope(|s| {
            for t in 0..4 {
                let rec = rec.clone();
                s.spawn(move || {
                    let c = rec.counter("hits");
                    let h = rec.histogram("work", &count_buckets());
                    for i in 0..1000 {
                        let _span = rec.span("worker");
                        c.inc();
                        h.observe((t * 1000 + i) as f64 % 17.0);
                    }
                });
            }
        });
        assert_eq!(rec.counter_value("hits"), Some(4000));
        check_json(&rec.metrics_json().unwrap());
        check_json(&rec.chrome_trace_json().unwrap());
    }
}
