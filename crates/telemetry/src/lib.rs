//! # lisa-telemetry
//!
//! Structured observability for the LISA enforcement pipeline: hierarchical
//! spans (thread-local span stack, monotonic ids, wall time plus derived
//! self-time), structured events, named counters, and log-bucketed latency
//! histograms. Exporters produce an NDJSON event stream, a Chrome
//! trace-event JSON file loadable in Perfetto (`ui.perfetto.dev`), and a
//! metrics snapshot JSON.
//!
//! ## Design constraints
//!
//! - **Std-only.** No external crates; the registry is a sharded
//!   `Mutex<Vec<..>>` keyed by thread, which keeps cross-thread contention
//!   near zero without unsafe code.
//! - **Near-zero cost when off.** [`TelemetryConfig::Off`] is the default;
//!   every entry point first checks a relaxed [`AtomicBool`] and returns
//!   before touching thread-local state or allocating.
//! - **Deterministic-safe.** Telemetry is a write-only side channel: nothing
//!   in this crate feeds back into verdict computation, so artifacts such as
//!   `DurableGateReport::verdicts_text()` stay byte-identical whether
//!   telemetry is on or off. Timestamps appear only in telemetry output
//!   files, never in verdict artifacts.
//! - **One clock per layer.** A span is its layer's only timer: closing
//!   a [`SpanGuard`] records its duration into the histogram
//!   `<span name>_us` whenever metrics are on, so the per-layer latency
//!   split is the same at [`TelemetryConfig::MetricsOnly`] as in a full
//!   trace (DESIGN.md §11).
//! - **Unwind-safe spans.** A [`SpanGuard`] pops the thread-local stack by
//!   truncating at its *own* id rather than popping one frame, so a panic
//!   caught by `catch_unwind` in a child frame cannot leave the stack
//!   unbalanced (DESIGN.md §11).
//!
//! ```
//! use lisa_telemetry as tel;
//! tel::init(tel::TelemetryConfig::Full);
//! {
//!     let mut outer = tel::span("pipeline.rule");
//!     outer.arg("tests", 3);
//!     let _inner = tel::span("smt.check");
//!     tel::counter_add("smt.queries", 1);
//! }
//! let trace = tel::chrome_trace_json();
//! assert!(trace.contains("\"smt.check\""));
//! // Each span also fed its layer's latency histogram.
//! assert_eq!(tel::histograms_snapshot()["smt.check_us"].count, 1);
//! ```

#![forbid(unsafe_code)]

mod export;
mod metrics;
mod span;

pub use export::{chrome_trace_json, metrics_json, ndjson};
pub use metrics::{
    bucket_index, bucket_midpoint, counter_add, counter_value, counters_snapshot,
    histogram_merge, histogram_record, histograms_snapshot, Histogram, HISTOGRAM_BUCKETS,
};
pub use span::{event, span, span_with, stack_depth, EventRecord, SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};

/// How much telemetry to collect. The default is [`TelemetryConfig::Off`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryConfig {
    /// Collect nothing; every entry point is a relaxed atomic load + branch.
    Off,
    /// Counters and histograms only — no span records, no events; a span
    /// still times its layer into `<name>_us`. Suitable for long-running
    /// daemons where an unbounded span registry would leak.
    MetricsOnly,
    /// Spans, events, counters, and histograms.
    Full,
}

static METRICS_ON: AtomicBool = AtomicBool::new(false);
static SPANS_ON: AtomicBool = AtomicBool::new(false);
static VERBOSE: AtomicBool = AtomicBool::new(false);

/// Set the global collection level. May be called repeatedly (e.g. by a
/// bench harness toggling collection between phases); already-collected
/// data is kept until [`reset`].
pub fn init(config: TelemetryConfig) {
    let (metrics, spans) = match config {
        TelemetryConfig::Off => (false, false),
        TelemetryConfig::MetricsOnly => (true, false),
        TelemetryConfig::Full => (true, true),
    };
    span::ensure_epoch();
    METRICS_ON.store(metrics, Ordering::Relaxed);
    SPANS_ON.store(spans, Ordering::Relaxed);
}

/// The current global collection level.
pub fn config() -> TelemetryConfig {
    match (metrics_enabled(), spans_enabled()) {
        (_, true) => TelemetryConfig::Full,
        (true, false) => TelemetryConfig::MetricsOnly,
        (false, false) => TelemetryConfig::Off,
    }
}

/// True when counters and histograms are being collected.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// True when spans and events are being collected.
#[inline]
pub fn spans_enabled() -> bool {
    SPANS_ON.load(Ordering::Relaxed)
}

/// Toggle human-readable diagnostics on stderr (the `--verbose` flag).
pub fn set_verbose(on: bool) {
    VERBOSE.store(on, Ordering::Relaxed);
}

/// True when [`note`] should print to stderr.
#[inline]
pub fn verbose() -> bool {
    VERBOSE.load(Ordering::Relaxed)
}

/// A diagnostic note: printed to stderr under `--verbose`, recorded as a
/// structured event when spans are on, and free otherwise. The message is
/// built lazily so the disabled path never formats.
pub fn note<F: FnOnce() -> String>(category: &'static str, msg: F) {
    let print = verbose();
    let record = spans_enabled();
    if !print && !record {
        return;
    }
    let text = msg();
    if print {
        eprintln!("[lisa] {category}: {text}");
    }
    if record {
        span::event(category, text);
    }
}

/// Clear all collected spans, events, counters, and histograms. The
/// collection level is unchanged.
pub fn reset() {
    span::reset();
    metrics::reset();
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // Config and registries are process-global; tests that flip them must
    // serialize. Poisoning is irrelevant for a unit guard.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_config_is_a_noop() {
        let _guard = test_lock();
        init(TelemetryConfig::Off);
        reset();
        {
            let mut s = span("should.not.exist");
            s.arg("x", 1);
            counter_add("c", 5);
            histogram_record("h", 10);
            event("e", "ignored");
        }
        assert_eq!(stack_depth(), 0);
        assert!(counters_snapshot().is_empty());
        assert!(histograms_snapshot().is_empty());
        assert!(!chrome_trace_json().contains("should.not.exist"));
    }

    #[test]
    fn metrics_only_skips_spans() {
        let _guard = test_lock();
        init(TelemetryConfig::MetricsOnly);
        reset();
        {
            let _s = span("no.span");
            counter_add("only.counter", 2);
        }
        assert_eq!(counter_value("only.counter"), 2);
        assert!(!ndjson().contains("no.span"));
        assert_eq!(histograms_snapshot()["no.span_us"].count, 1, "the span still timed");
        init(TelemetryConfig::Off);
    }

    #[test]
    fn config_round_trips() {
        let _guard = test_lock();
        for c in [TelemetryConfig::Full, TelemetryConfig::MetricsOnly, TelemetryConfig::Off] {
            init(c);
            assert_eq!(config(), c);
        }
    }
}
