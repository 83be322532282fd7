//! The cache-introspection snapshot and the lock counters behind it.
//!
//! A cache answers `stats()` once with a plain [`CacheStats`] value, and
//! the telemetry publisher iterates [`counters`](CacheStats::counters)
//! uniformly instead of keeping a hand-maintained counter list.
//! [`lock_counted`] is how a cache's mutex feeds the lock fields.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Instant;

/// A point-in-time snapshot of one cache's counters. Plain data: cheap to
/// copy, compare, and diff against an earlier snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the underlying computation.
    pub misses: u64,
    /// Lock acquisitions.
    pub lock_acquires: u64,
    /// Lock acquisitions that had to block on another worker.
    pub lock_contended: u64,
    /// Cumulative nanoseconds spent blocked on the lock.
    pub lock_wait_ns: u64,
    /// Live entries at snapshot time.
    pub entries: u64,
}

impl CacheStats {
    /// The snapshot as uniform `(suffix, value)` counter pairs, ready to
    /// be prefixed with a tier name (`cache.<tier>.<suffix>`) and
    /// published. Wait time is reported in microseconds — nanosecond
    /// totals overflow dashboards long before they overflow u64, and
    /// sub-microsecond waits are noise.
    pub fn counters(&self) -> [(&'static str, u64); 5] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("lock_acquires", self.lock_acquires),
            ("lock_contended", self.lock_contended),
            ("lock_wait_us", self.lock_wait_ns / 1_000),
        ]
    }
}

/// Counters for one mutex: total acquisitions, how many had to block,
/// and the cumulative nanoseconds spent blocked.
#[derive(Debug, Default)]
pub struct LockStats {
    acquires: AtomicU64,
    contended: AtomicU64,
    wait_ns: AtomicU64,
}

impl LockStats {
    pub fn new() -> LockStats {
        LockStats::default()
    }

    pub fn acquires(&self) -> u64 {
        self.acquires.load(Ordering::Relaxed)
    }

    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    pub fn wait_ns(&self) -> u64 {
        self.wait_ns.load(Ordering::Relaxed)
    }
}

/// Lock `m`, recording the acquisition in `stats`. The fast path is one
/// `try_lock`; only a blocked acquisition pays for a clock read. A
/// poisoned lock is taken anyway.
pub fn lock_counted<'a, T>(m: &'a Mutex<T>, stats: &LockStats) -> MutexGuard<'a, T> {
    stats.acquires.fetch_add(1, Ordering::Relaxed);
    match m.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => {
            stats.contended.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let guard = m.lock().unwrap_or_else(|p| p.into_inner());
            stats.wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            guard
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_report_wait_in_micros() {
        let s = CacheStats { lock_wait_ns: 7_900, ..Default::default() };
        let pairs = s.counters();
        assert!(pairs.contains(&("lock_wait_us", 7)));
        assert_eq!(pairs.len(), 5);
    }

    #[test]
    fn lock_stats_count_acquisitions() {
        let m = Mutex::new(0);
        let stats = LockStats::new();
        *lock_counted(&m, &stats) += 1;
        *lock_counted(&m, &stats) += 1;
        assert_eq!(*m.lock().unwrap(), 2);
        assert_eq!(stats.acquires(), 2);
        assert_eq!(stats.contended(), 0, "uncontended single thread");
        assert_eq!(stats.wait_ns(), 0);
    }
}
