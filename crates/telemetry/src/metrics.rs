//! Named counters and log-bucketed latency histograms.
//!
//! Keys are plain strings so that persisted snapshots (e.g. the serve
//! daemon's journaled metrics) can be restored without interning. The hot
//! path (`counter_add` on an existing key) takes one lock and does no
//! allocation.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`.
/// Bucket `i >= 1` covers `[2^(i-1), 2^i - 1]`; bucket 64 covers
/// `[2^63, u64::MAX]`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Representative value for a bucket (its midpoint), used for percentile
/// estimation. Bucket 0 is exactly 0.
pub fn bucket_midpoint(i: usize) -> u64 {
    if i == 0 {
        return 0;
    }
    let lo = 1u64 << (i - 1);
    let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
    lo + (hi - lo) / 2
}

/// A log2-bucketed histogram. Values land in 65 buckets (zero + one per
/// power of two), giving ≤ 2x relative error on percentile estimates at
/// constant memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: vec![0; HISTOGRAM_BUCKETS], count: 0, sum: 0 }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Estimated q-quantile (`0.0 ..= 1.0`) from bucket midpoints. Returns
    /// 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_midpoint(i);
            }
        }
        bucket_midpoint(HISTOGRAM_BUCKETS - 1)
    }

    /// The (p50, p95, p99) summary most latency consumers report — one
    /// snapshot walk instead of three independent percentile calls.
    pub fn summary(&self) -> (u64, u64, u64) {
        (self.percentile(0.50), self.percentile(0.95), self.percentile(0.99))
    }

    /// Merge another histogram into this one (used when restoring persisted
    /// snapshots).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

fn counters() -> &'static Mutex<BTreeMap<String, u64>> {
    static COUNTERS: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
    COUNTERS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn histograms() -> &'static Mutex<BTreeMap<String, Histogram>> {
    static HISTOGRAMS: OnceLock<Mutex<BTreeMap<String, Histogram>>> = OnceLock::new();
    HISTOGRAMS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Add `delta` to the named counter. No-op unless metrics are enabled.
pub fn counter_add(name: &str, delta: u64) {
    if !crate::metrics_enabled() {
        return;
    }
    let mut map = counters().lock().unwrap_or_else(|e| e.into_inner());
    match map.get_mut(name) {
        Some(v) => *v = v.saturating_add(delta),
        None => {
            map.insert(name.to_string(), delta);
        }
    }
}

/// Current value of a counter (0 if never written).
pub fn counter_value(name: &str) -> u64 {
    counters()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Record one observation into the named histogram. No-op unless metrics
/// are enabled.
pub fn histogram_record(name: &str, value: u64) {
    if !crate::metrics_enabled() {
        return;
    }
    let mut map = histograms().lock().unwrap_or_else(|e| e.into_inner());
    match map.get_mut(name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::new();
            h.record(value);
            map.insert(name.to_string(), h);
        }
    }
}

/// Record a closed span's duration into the histogram `<name>_us`. The
/// key is spelled in a stack buffer, so recording into an existing
/// histogram allocates nothing.
pub(crate) fn record_span_us(name: &str, us: u64) {
    const SUFFIX: &[u8] = b"_us";
    let mut buf = [0u8; 64];
    let len = name.len() + SUFFIX.len();
    if len > buf.len() {
        return histogram_record(&format!("{name}_us"), us);
    }
    buf[..name.len()].copy_from_slice(name.as_bytes());
    buf[name.len()..len].copy_from_slice(SUFFIX);
    // Two valid UTF-8 strings concatenate to valid UTF-8.
    histogram_record(std::str::from_utf8(&buf[..len]).expect("utf-8"), us);
}

/// Merge a previously persisted histogram into the named histogram. Used
/// when a daemon restores a journaled metrics snapshot on startup; the
/// restored buckets accumulate under everything recorded since. No-op
/// unless metrics are enabled.
pub fn histogram_merge(name: &str, restored: &Histogram) {
    if !crate::metrics_enabled() {
        return;
    }
    let mut map = histograms().lock().unwrap_or_else(|e| e.into_inner());
    match map.get_mut(name) {
        Some(h) => h.merge(restored),
        None => {
            map.insert(name.to_string(), restored.clone());
        }
    }
}

/// Copy of all counters, sorted by name.
pub fn counters_snapshot() -> BTreeMap<String, u64> {
    counters().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Copy of all histograms, sorted by name.
pub fn histograms_snapshot() -> BTreeMap<String, Histogram> {
    histograms().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

pub(crate) fn reset() {
    counters().lock().unwrap_or_else(|e| e.into_inner()).clear();
    histograms().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        // Every power-of-two boundary: 2^k opens bucket k+1, 2^k - 1 closes
        // bucket k.
        for k in 1..64usize {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k + 1, "2^{k}");
            assert_eq!(bucket_index(v - 1), k, "2^{k} - 1");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_index((1u64 << 63) - 1), 63);
    }

    #[test]
    fn bucket_midpoints_are_in_range() {
        assert_eq!(bucket_midpoint(0), 0);
        assert_eq!(bucket_midpoint(1), 1);
        for i in 1..HISTOGRAM_BUCKETS {
            let mid = bucket_midpoint(i);
            assert_eq!(bucket_index(mid), i, "midpoint of bucket {i} must land in it");
        }
    }

    #[test]
    fn histogram_extremes_do_not_panic_or_wrap() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[64], 2);
        assert_eq!(h.sum, u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.percentile(0.0), 0);
        assert!(h.percentile(0.99) >= 1u64 << 63);
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p95, p99) = h.summary();
        // Log buckets bound relative error by 2x.
        assert!((250..=1000).contains(&p50), "p50 = {p50}");
        assert!((500..=2000).contains(&p95), "p95 = {p95}");
        assert!((500..=2000).contains(&p99), "p99 = {p99}");
        assert!(p95 >= p50);
        assert!(p99 >= p95, "the tail ordering must hold");
        assert_eq!(Histogram::new().percentile(0.5), 0, "empty histogram");
        assert_eq!(Histogram::new().summary(), (0, 0, 0));
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        b.record(1);
        b.record(1024);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 1026);
        assert_eq!(a.buckets[bucket_index(1)], 2);
        assert_eq!(a.buckets[bucket_index(1024)], 1);
    }

    #[test]
    fn counters_accumulate_and_saturate() {
        let _guard = crate::test_lock();
        crate::init(crate::TelemetryConfig::MetricsOnly);
        crate::reset();
        counter_add("t.counter", 3);
        counter_add("t.counter", 4);
        assert_eq!(counter_value("t.counter"), 7);
        counter_add("t.counter", u64::MAX);
        assert_eq!(counter_value("t.counter"), u64::MAX);
        histogram_record("t.hist", 100);
        histogram_record("t.hist", 200);
        let snap = histograms_snapshot();
        assert_eq!(snap["t.hist"].count, 2);
        assert_eq!(snap["t.hist"].sum, 300);
        crate::init(crate::TelemetryConfig::Off);
    }
}
