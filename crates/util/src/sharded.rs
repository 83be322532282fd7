//! Lock-striped, single-flight memoization maps.
//!
//! The gate's caches started life as one `Mutex<HashMap>` each. That is
//! correct but serializes every lookup once the enforcement engine spreads
//! rule tasks across workers: N threads all hashing into one
//! lock turn the cache from an accelerator into a convoy. [`ShardedMap`]
//! stripes the map across independently locked shards (keyed by the
//! entry hash), so concurrent lookups of different keys proceed in
//! parallel.
//!
//! Two properties the callers rely on:
//!
//! - **Single-flight builds.** When two workers miss the same key at the
//!   same time, exactly one runs the builder; the other waits and gets
//!   the same `Arc` (and counts a hit — it paid a wait, not a build).
//!   Without this, parallel rules sharing a target would duplicate the
//!   most expensive work in the system and make hit counters racy.
//! - **Contention observability.** Every shard lock acquisition is
//!   counted, and blocked acquisitions record their wait time, so
//!   `cache.*` telemetry can report time lost to cache serialization.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::Instant;

/// Counters for one family of mutexes: total acquisitions, how many had
/// to block, and the cumulative nanoseconds spent blocked.
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

    /// Fold another family's counters into a combined view.
    pub fn add_from(&self, other: &LockStats) {
        self.acquires.fetch_add(other.acquires(), Ordering::Relaxed);
        self.contended.fetch_add(other.contended(), Ordering::Relaxed);
        self.wait_ns.fetch_add(other.wait_ns(), Ordering::Relaxed);
    }
}

/// Lock `m`, recording the acquisition in `stats`. The fast path is one
/// `try_lock`; only a blocked acquisition pays for a clock read.
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

/// State of one in-flight build, shared between the builder and any
/// coalesced waiters.
#[derive(Debug)]
enum BuildState<V> {
    Pending,
    Done(Arc<V>),
    /// The builder panicked (or its entry was evicted mid-build): waiters
    /// retry from scratch instead of hanging forever.
    Abandoned,
}

#[derive(Debug)]
struct InFlight<V> {
    state: Mutex<BuildState<V>>,
    cv: Condvar,
}

#[derive(Debug)]
enum Slot<V> {
    Ready(Arc<V>),
    Building(Arc<InFlight<V>>),
}

type Shard<K, V> = Mutex<HashMap<K, Slot<V>>>;

/// A lock-striped, single-flight `HashMap<K, Arc<V>>`.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Box<[Shard<K, V>]>,
    locks: LockStats,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> ShardedMap<K, V> {
    /// A map striped across `shards` locks (clamped to at least 1).
    pub fn new(shards: usize) -> ShardedMap<K, V> {
        let shards = shards.max(1);
        ShardedMap {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            locks: LockStats::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Slot<V>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// The value for `key`, building it with `build` on first use. At
    /// most one builder runs per key at a time; concurrent requesters of
    /// a key being built wait for it (counted as hits — they share the
    /// build instead of duplicating it). The builder runs outside every
    /// shard lock, and a panicking builder wakes its waiters to retry
    /// rather than stranding them.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        loop {
            let inflight = {
                let mut shard = lock_counted(self.shard(&key), &self.locks);
                match shard.get(&key) {
                    Some(Slot::Ready(v)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Arc::clone(v);
                    }
                    Some(Slot::Building(b)) => Arc::clone(b),
                    None => {
                        let b = Arc::new(InFlight {
                            state: Mutex::new(BuildState::Pending),
                            cv: Condvar::new(),
                        });
                        shard.insert(key.clone(), Slot::Building(Arc::clone(&b)));
                        drop(shard);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let guard = AbandonOnUnwind { map: self, key: &key, inflight: &b };
                        let value = Arc::new(build());
                        guard.complete(Arc::clone(&value));
                        return value;
                    }
                }
            };
            // Another worker is already building this key: wait for it.
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut state = inflight.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                match &*state {
                    BuildState::Done(v) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Arc::clone(v);
                    }
                    BuildState::Abandoned => break,
                    BuildState::Pending => {
                        state = inflight
                            .cv
                            .wait(state)
                            .unwrap_or_else(|p| p.into_inner());
                    }
                }
            }
            // Builder died: retry the whole lookup (possibly becoming the
            // builder ourselves).
        }
    }

    /// Live entries across all shards (ready + in-flight). Its locks are
    /// not counted in [`ShardedMap::lock_stats`], which measure the
    /// lookups' own locking.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups that waited for another worker's in-flight build instead
    /// of duplicating it (a subset of `hits`).
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    pub fn lock_stats(&self) -> &LockStats {
        &self.locks
    }

    /// The map's counters as one uniform [`CacheStats`] snapshot. Note
    /// `entries` takes every shard lock, so this is an introspection
    /// call, not a hot-path one; those locks are not counted, so a
    /// snapshot never inflates the `lock_acquires` it or the next one
    /// reports.
    pub fn stats(&self) -> crate::CacheStats {
        crate::CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            coalesced: self.coalesced(),
            lock_acquires: self.locks.acquires(),
            lock_contended: self.locks.contended(),
            lock_wait_ns: self.locks.wait_ns(),
            shards: self.shards.len() as u64,
            entries: self.len() as u64,
            ..Default::default()
        }
    }
}

/// Resolves an in-flight build on the way out: `complete` publishes the
/// value; dropping without completing (builder panicked) marks the build
/// abandoned and removes its placeholder so waiters retry.
struct AbandonOnUnwind<'a, K: Hash + Eq + Clone, V> {
    map: &'a ShardedMap<K, V>,
    key: &'a K,
    inflight: &'a Arc<InFlight<V>>,
}

impl<K: Hash + Eq + Clone, V> AbandonOnUnwind<'_, K, V> {
    fn complete(self, value: Arc<V>) {
        {
            let mut state =
                self.inflight.state.lock().unwrap_or_else(|p| p.into_inner());
            *state = BuildState::Done(Arc::clone(&value));
            self.inflight.cv.notify_all();
        }
        let mut shard = lock_counted(self.map.shard(self.key), &self.map.locks);
        if let Some(slot) = shard.get_mut(self.key) {
            if matches!(slot, Slot::Building(b) if Arc::ptr_eq(b, self.inflight)) {
                *slot = Slot::Ready(value);
            }
        }
        std::mem::forget(self);
    }
}

impl<K: Hash + Eq + Clone, V> Drop for AbandonOnUnwind<'_, K, V> {
    fn drop(&mut self) {
        {
            let mut state =
                self.inflight.state.lock().unwrap_or_else(|p| p.into_inner());
            *state = BuildState::Abandoned;
            self.inflight.cv.notify_all();
        }
        let mut shard = lock_counted(self.map.shard(self.key), &self.map.locks);
        if let Some(slot) = shard.get(self.key) {
            if matches!(slot, Slot::Building(b) if Arc::ptr_eq(b, self.inflight)) {
                shard.remove(self.key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn builds_once_then_hits() {
        let map: ShardedMap<u64, String> = ShardedMap::new(8);
        let builds = AtomicUsize::new(0);
        for _ in 0..3 {
            let v = map.get_or_build(7, || {
                builds.fetch_add(1, Ordering::Relaxed);
                "value".to_string()
            });
            assert_eq!(*v, "value");
        }
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!((map.hits(), map.misses()), (2, 1));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn concurrent_same_key_single_flights() {
        let map: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new(8));
        let builds = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let map = Arc::clone(&map);
                let builds = Arc::clone(&builds);
                scope.spawn(move || {
                    let v = map.get_or_build(1, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Give siblings time to coalesce on the build.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        42
                    });
                    assert_eq!(*v, 42);
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one build");
        assert_eq!(map.misses(), 1);
        assert_eq!(map.hits(), 7);
    }

    #[test]
    fn panicking_builder_does_not_strand_waiters() {
        let map: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new(1));
        let first = {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    map.get_or_build(1, || panic!("injected"));
                }));
            })
        };
        first.join().expect("panic was caught");
        // The failed build left no entry; a retry builds cleanly.
        let v = map.get_or_build(1, || 9);
        assert_eq!(*v, 9);
    }

    #[test]
    fn stats_snapshots_do_not_count_their_own_locks() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(16);
        map.get_or_build(1, || 1);
        let first = map.stats();
        let second = map.stats();
        assert_eq!(first.entries, 1);
        assert_eq!(first.lock_acquires, second.lock_acquires, "an idle map's count moved");
    }

    #[test]
    fn lock_stats_count_acquisitions() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(2);
        map.get_or_build(1, || 1);
        assert!(map.lock_stats().acquires() >= 1);
        assert_eq!(map.lock_stats().contended(), 0, "uncontended single thread");
    }
}
