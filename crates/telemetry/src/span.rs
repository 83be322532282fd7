//! Hierarchical spans and structured events.
//!
//! Each thread owns a span *stack* (thread-local `Vec` of span ids); a new
//! span's parent is whatever is on top when it starts. Finished spans land
//! in a sharded registry — one `Mutex<Vec<..>>` per shard, sharded by
//! thread id — so concurrent workers almost never contend.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const SHARDS: usize = 8;

/// A completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Monotonic id, unique across threads. Never 0.
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Taxonomy name, e.g. `"smt.check"` (DESIGN.md §11).
    pub name: &'static str,
    /// Free-form qualifier (rule id, file name, ...). May be empty.
    pub detail: String,
    /// Small dense thread id (first span on a thread allocates it).
    pub tid: u64,
    /// Start, microseconds since the telemetry epoch ([`crate::init`]).
    pub start_us: u64,
    /// Wall duration in microseconds.
    pub dur_us: u64,
    /// Numeric attributes attached via [`SpanGuard::arg`].
    pub args: Vec<(&'static str, u64)>,
}

/// A point-in-time structured event.
#[derive(Debug, Clone)]
pub struct EventRecord {
    pub name: &'static str,
    pub detail: String,
    pub tid: u64,
    /// Microseconds since the telemetry epoch.
    pub ts_us: u64,
    /// Enclosing span id at emission time, or 0.
    pub parent: u64,
}

struct Registry {
    spans: [Mutex<Vec<SpanRecord>>; SHARDS],
    events: [Mutex<Vec<EventRecord>>; SHARDS],
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        spans: std::array::from_fn(|_| Mutex::new(Vec::new())),
        events: std::array::from_fn(|_| Mutex::new(Vec::new())),
    })
}

pub(crate) fn ensure_epoch() {
    let _ = EPOCH.get_or_init(Instant::now);
}

fn micros_since_epoch(now: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    now.saturating_duration_since(epoch).as_micros() as u64
}

fn tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let v = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// What a traced span adds to its clock: its place in the tree and its
/// attributes. Only built when spans are on.
struct Traced {
    id: u64,
    parent: u64,
    detail: String,
    tid: u64,
    start_us: u64,
    args: Vec<(&'static str, u64)>,
}

/// RAII guard for an open span: the one clock of its layer. Closing it
/// records its duration into the histogram `<name>_us` when metrics are
/// on, and the span itself when spans are on.
///
/// When telemetry is off this is an empty shell. At
/// [`crate::TelemetryConfig::MetricsOnly`] it holds only its name and
/// start instant: no id, no stack frame, no detail string, no registry
/// record, and no allocation once its histogram exists.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    traced: Option<Traced>,
}

/// Open a span named `name` under the current thread's innermost span.
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, String::new())
}

/// Open a span with a free-form detail string (rule id, path, ...). The
/// detail is only converted when spans are on.
pub fn span_with(name: &'static str, detail: impl Into<String>) -> SpanGuard {
    if !crate::metrics_enabled() {
        return SpanGuard { name, start: None, traced: None };
    }
    let start = Instant::now();
    let traced = crate::spans_enabled().then(|| {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        Traced {
            id,
            parent,
            detail: detail.into(),
            tid: tid(),
            start_us: micros_since_epoch(start),
            args: Vec::new(),
        }
    });
    SpanGuard { name, start: Some(start), traced }
}

impl SpanGuard {
    /// Attach a numeric attribute; exported under `args` in both formats.
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if let Some(t) = &mut self.traced {
            t.args.push((key, value));
        }
    }

    /// Replace the detail string (useful when it is only known at the end).
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        if let Some(t) = &mut self.traced {
            t.detail = detail.into();
        }
    }

    /// This span's id, or 0 when spans are disabled.
    pub fn id(&self) -> u64 {
        self.traced.as_ref().map_or(0, |t| t.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_us = start.elapsed().as_micros() as u64;
        crate::metrics::record_span_us(self.name, dur_us);
        let Some(t) = self.traced.take() else { return };
        // Unbalance-proof pop: truncate at our own id instead of popping one
        // frame. If a child frame leaked (e.g. its guard was forgotten, or
        // drop order was disturbed by unwinding), this still restores the
        // stack to the state before this span opened.
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == t.id) {
                stack.truncate(pos);
            }
        });
        let record = SpanRecord {
            id: t.id,
            parent: t.parent,
            name: self.name,
            detail: t.detail,
            tid: t.tid,
            start_us: t.start_us,
            dur_us,
            args: t.args,
        };
        registry().spans[(t.tid as usize) % SHARDS]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
    }
}

/// Record a point-in-time event under the current innermost span.
pub fn event(name: &'static str, detail: impl Into<String>) {
    if !crate::spans_enabled() {
        return;
    }
    let tid = tid();
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let record = EventRecord {
        name,
        detail: detail.into(),
        tid,
        ts_us: micros_since_epoch(Instant::now()),
        parent,
    };
    registry().events[(tid as usize) % SHARDS]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(record);
}

/// Depth of the calling thread's span stack (open spans). Exposed so tests
/// can assert stack balance across panic isolation boundaries.
pub fn stack_depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

/// Snapshot all finished spans and events, ordered by start time then id.
pub(crate) fn snapshot() -> (Vec<SpanRecord>, Vec<EventRecord>) {
    let reg = registry();
    let mut spans = Vec::new();
    let mut events = Vec::new();
    for shard in &reg.spans {
        spans.extend(shard.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned());
    }
    for shard in &reg.events {
        events.extend(shard.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned());
    }
    spans.sort_by_key(|s| (s.start_us, s.id));
    events.sort_by_key(|e| (e.ts_us, e.tid));
    (spans, events)
}

/// Wall-minus-children time per span id: the "CPU-ish" cost attributable to
/// the span itself rather than its children.
pub(crate) fn self_times(spans: &[SpanRecord]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *children.entry(s.parent).or_insert(0) += s.dur_us;
        }
    }
    spans
        .iter()
        .map(|s| (s.id, s.dur_us.saturating_sub(children.get(&s.id).copied().unwrap_or(0))))
        .collect()
}

pub(crate) fn reset() {
    let reg = registry();
    for shard in &reg.spans {
        shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
    for shard in &reg.events {
        shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryConfig;

    #[test]
    fn spans_nest_and_link_parents() {
        let _guard = crate::test_lock();
        crate::init(TelemetryConfig::Full);
        crate::reset();
        let outer_id;
        {
            let outer = span_with("outer", "o");
            outer_id = outer.id();
            assert_eq!(stack_depth(), 1);
            {
                let inner = span("inner");
                assert_eq!(stack_depth(), 2);
                assert_ne!(inner.id(), outer_id);
            }
            assert_eq!(stack_depth(), 1);
        }
        assert_eq!(stack_depth(), 0);
        let (spans, _) = snapshot();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer recorded");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner recorded");
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.id, outer_id);
        assert!(outer.dur_us >= inner.dur_us);
        crate::init(TelemetryConfig::Off);
    }

    #[test]
    fn a_closed_span_feeds_its_histogram_with_its_own_duration() {
        let _guard = crate::test_lock();
        crate::init(TelemetryConfig::Full);
        crate::reset();
        {
            let _outer = span("clock.outer");
            let _inner = span("clock.inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let (spans, _) = snapshot();
        let hists = crate::histograms_snapshot();
        for name in ["clock.outer", "clock.inner"] {
            let record = spans.iter().find(|s| s.name == name).expect("recorded");
            let h = &hists[&format!("{name}_us")];
            assert_eq!((h.count, h.sum), (1, record.dur_us), "{name}: one clock");
        }
        // Metrics alone: the histogram still fills, and no span is kept.
        crate::init(TelemetryConfig::MetricsOnly);
        crate::reset();
        {
            let mut s = span_with("clock.metrics", "detail");
            s.arg("ignored", 1);
            assert_eq!((s.id(), stack_depth()), (0, 0), "no id, no stack frame");
        }
        assert!(snapshot().0.is_empty());
        assert_eq!(crate::histograms_snapshot()["clock.metrics_us"].count, 1);
        crate::init(TelemetryConfig::Off);
    }

    #[test]
    fn stack_survives_catch_unwind_panic() {
        let _guard = crate::test_lock();
        crate::init(TelemetryConfig::Full);
        crate::reset();
        let _outer = span("panic.outer");
        assert_eq!(stack_depth(), 1);
        let result = std::panic::catch_unwind(|| {
            let _inner = span("panic.inner");
            let _deeper = span("panic.deeper");
            panic!("boom");
        });
        assert!(result.is_err());
        // Unwinding dropped inner+deeper; the outer frame must be intact.
        assert_eq!(stack_depth(), 1, "panic must not corrupt the span stack");
        // A fresh span still nests correctly under the survivor.
        let outer_id = _outer.id();
        {
            let after = span("panic.after");
            assert_eq!(stack_depth(), 2);
            drop(after);
        }
        let (spans, _) = snapshot();
        let after = spans.iter().find(|s| s.name == "panic.after").expect("recorded");
        assert_eq!(after.parent, outer_id);
        crate::init(TelemetryConfig::Off);
    }

    #[test]
    fn truncate_pop_repairs_leaked_frames() {
        let _guard = crate::test_lock();
        crate::init(TelemetryConfig::Full);
        crate::reset();
        {
            let outer = span("leak.outer");
            let inner = span("leak.inner");
            // Drop out of order: outer first. Its truncate-at-own-id pop
            // clears the leaked inner frame too.
            drop(outer);
            assert_eq!(stack_depth(), 0);
            drop(inner);
            assert_eq!(stack_depth(), 0);
        }
        crate::init(TelemetryConfig::Off);
    }

    #[test]
    fn events_attach_to_innermost_span() {
        let _guard = crate::test_lock();
        crate::init(TelemetryConfig::Full);
        crate::reset();
        let parent_id;
        {
            let s = span("evt.parent");
            parent_id = s.id();
            event("evt.note", "something happened");
        }
        let (_, events) = snapshot();
        let e = events.iter().find(|e| e.name == "evt.note").expect("event recorded");
        assert_eq!(e.parent, parent_id);
        assert_eq!(e.detail, "something happened");
        crate::init(TelemetryConfig::Off);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "root",
                detail: String::new(),
                tid: 1,
                start_us: 0,
                dur_us: 100,
                args: Vec::new(),
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "child",
                detail: String::new(),
                tid: 1,
                start_us: 10,
                dur_us: 30,
                args: Vec::new(),
            },
            SpanRecord {
                id: 3,
                parent: 1,
                name: "child",
                detail: String::new(),
                tid: 1,
                start_us: 50,
                dur_us: 40,
                args: Vec::new(),
            },
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 30);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 40);
    }
}
