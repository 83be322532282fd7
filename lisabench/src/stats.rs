//! Percentiles, the `serve_max_rps` rule, and process memory.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(p * n)`, clamped to `1..=n`. Every reported percentile is
/// an observed sample, never an interpolation. `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Samples in one timing series, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Series {
    values: Vec<f64>,
    sorted: bool,
}

impl Series {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Nearest-rank percentile (see [`percentile`]); 0 when empty.
    pub fn pct(&mut self, p: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile(&self.values, p).unwrap_or(0.0)
    }

    pub fn p50(&mut self) -> f64 {
        self.pct(0.50)
    }
}

/// Counts of positive values in logarithmic buckets 0.1% wide, so its
/// memory grows with the spread of the values, not their number: a loop
/// that runs faster does not raise the peak RSS it reports.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: BTreeMap<i32, u64>,
    n: u64,
}

impl Histogram {
    /// Natural log of a bucket's width ratio (1.001).
    const STEP: f64 = 0.001;

    pub fn push(&mut self, v: f64) {
        let k = (v.max(f64::MIN_POSITIVE).ln() / Self::STEP).round() as i32;
        *self.buckets.entry(k).or_insert(0) += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank percentile (see [`percentile`]), as the centre of
    /// its bucket, within 0.05% of the sample; 0 when empty.
    pub fn pct(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (&k, &count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return (f64::from(k) * Self::STEP).exp();
            }
        }
        unreachable!("the counts sum to n")
    }

    pub fn p50(&self) -> f64 {
        self.pct(0.50)
    }
}

/// What the load generator saw at one rung of the rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct RungTally {
    /// Offered rate, requests per second.
    pub rate: f64,
    pub attempted: u64,
    /// Lost, malformed, error, shed or wrong-verdict replies.
    pub failed: u64,
    /// Latency from due time, 99th percentile, ms.
    pub p99_ms: f64,
    /// Mean backlog (arrivals due but not yet sent, sampled as each
    /// arrival is taken) over the first and the second half of the
    /// rung's schedule.
    pub backlog_first_half: f64,
    pub backlog_second_half: f64,
    /// Largest backlog sampled in the rung.
    pub backlog_max: u64,
}

impl RungTally {
    /// The backlog grows when the second half of the rung queues more,
    /// on average, than the first half by over 2% of the rung's arrivals
    /// (and by at least one request). A stall of a few tens of
    /// milliseconds that drains moves the means by a request or two; a
    /// rate the daemon cannot keep up with moves them by its whole
    /// deficit, a large share of the rung.
    pub fn backlog_grew(&self) -> bool {
        let slack = (0.02 * self.attempted as f64).max(1.0);
        self.backlog_second_half > self.backlog_first_half + slack
    }

    /// A rung is sustained when its p99 stays under the limit, nothing
    /// fails, and its backlog does not grow.
    pub fn sustained(&self, p99_limit_ms: f64) -> bool {
        self.attempted > 0 && self.failed == 0 && self.p99_ms < p99_limit_ms && !self.backlog_grew()
    }
}

/// `serve_max_rps`: the highest ladder rate that was sustained, or 0
/// when no rung was.
pub fn max_sustained_rate(rungs: &[RungTally], p99_limit_ms: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.sustained(p99_limit_ms))
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0), "rank clamps to 1");
        // Ten samples: p50 is the 5th, p95 and p99 round up to the 10th.
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&t, 0.50), Some(5.0));
        assert_eq!(percentile(&t, 0.95), Some(10.0));
        assert_eq!(percentile(&t, 0.99), Some(10.0));
        assert_eq!(percentile(&[7.5], 0.99), Some(7.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn series_sorts_before_ranking() {
        let mut s = Series::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.p50(), 3.0);
        assert_eq!(s.pct(1.0), 5.0);
        s.push(0.5);
        assert_eq!(s.pct(0.0), 0.5, "a push after ranking re-sorts");
        assert_eq!(Series::default().p50(), 0.0);
    }

    #[test]
    fn histogram_ranks_like_a_series_within_its_resolution() {
        let mut h = Histogram::default();
        let mut s = Series::default();
        // Three clusters, as gate latencies form them, ms.
        for k in 0..300 {
            let v = [0.21, 0.52, 0.98][k % 3] * (1.0 + f64::from(k as u32 % 7) / 1000.0);
            h.push(v);
            s.push(v);
        }
        assert_eq!(h.len(), 300);
        for p in [0.0, 0.05, 0.5, 0.95, 0.99, 1.0] {
            let (got, want) = (h.pct(p), s.pct(p));
            assert!((got / want - 1.0).abs() < 5e-4, "p{p}: {got} vs {want}");
        }
        assert_eq!(Histogram::default().p50(), 0.0);
        assert!(Histogram::default().is_empty());
    }

    fn rung(rate: f64, failed: u64, p99_ms: f64, first: f64, second: f64) -> RungTally {
        RungTally {
            rate,
            attempted: 100,
            failed,
            p99_ms,
            backlog_first_half: first,
            backlog_second_half: second,
            backlog_max: second.max(first).ceil() as u64,
        }
    }

    #[test]
    fn max_rps_takes_the_highest_sustained_rung() {
        let limit = 50.0;
        let rungs = [
            rung(100.0, 0, 10.0, 0.0, 0.1),
            rung(200.0, 0, 20.0, 0.2, 0.9),
            rung(400.0, 0, 80.0, 0.2, 0.2),    // p99 over the limit
            rung(800.0, 0, 30.0, 40.0, 120.0), // backlog grows
        ];
        assert_eq!(max_sustained_rate(&rungs, limit), 200.0);
    }

    #[test]
    fn max_rps_rejects_failures_and_growing_backlog() {
        let limit = 50.0;
        // One failure disqualifies a rung outright.
        assert_eq!(
            max_sustained_rate(&[rung(100.0, 1, 1.0, 0.0, 0.0)], limit),
            0.0
        );
        // A burst that drains moves the mean by less than 2% of the
        // rung's arrivals (100 here); the slack scales with the rung.
        assert!(!rung(100.0, 0, 1.0, 0.3, 2.3).backlog_grew());
        assert!(rung(100.0, 0, 1.0, 0.3, 2.31).backlog_grew());
        let long = RungTally {
            attempted: 1000,
            ..rung(100.0, 0, 1.0, 0.3, 20.0)
        };
        assert!(!long.backlog_grew());
        let tiny = RungTally {
            attempted: 10,
            ..rung(100.0, 0, 1.0, 0.0, 1.01)
        };
        assert!(tiny.backlog_grew(), "the slack is at least one request");
        // p99 exactly at the limit is not under it.
        assert!(!rung(100.0, 0, limit, 0.0, 0.0).sustained(limit));
        // An empty rung proves nothing.
        let empty = RungTally {
            attempted: 0,
            ..rung(100.0, 0, 0.0, 0.0, 0.0)
        };
        assert!(!empty.sustained(limit));
        // A failing rung between two passing ones does not cap the rate.
        let rungs = [
            rung(100.0, 0, 1.0, 0.0, 0.0),
            rung(200.0, 2, 1.0, 0.0, 0.0),
            rung(300.0, 0, 1.0, 0.0, 0.0),
        ];
        assert_eq!(max_sustained_rate(&rungs, limit), 300.0);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
