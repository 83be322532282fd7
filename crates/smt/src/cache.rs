//! LRU-bounded memoization of violation queries.
//!
//! Within one gate run many chains share a path-condition suffix, and
//! across versions an unchanged function replays the exact same traces —
//! so the solver sees the same `π ∧ ¬checker` query again and again. The
//! cache keys queries by the FNV-1a hash of the *canonicalized* formula
//! (NNF + simplification, [`crate::nnf::violation_query`]), so two
//! textually different but canonically identical queries share an entry.
//! The conflict budget is part of the key: an `Unknown` verdict is only
//! valid for the budget it was produced under. The canonical form is
//! built once per query: a miss hands it to the solver, which checks it
//! as it stands.
//!
//! Large caches are lock-striped: the capacity is split across N
//! independently locked LRU shards (selected by key hash), so rules
//! checked in parallel never serialize their queries on one mutex. Small
//! caches keep a single shard, preserving exact global-LRU eviction
//! order. Striping trades that global order for concurrency — each shard
//! evicts its own oldest entry — which changes *what* may be evicted but
//! never what a hit returns.
//!
//! Transparency is the design invariant: a hit returns a clone of the
//! exact [`ViolationOutcome`] the solver produced, so cached and uncached
//! gates render byte-identical verdicts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use lisa_util::{lock_counted, Fnv1a, LockStats};

use crate::nnf::{preprocess_violation, to_nnf, to_nnf_negated, violation_query};
use crate::solver::{check_violation, ViolationOutcome};
use crate::term::Term;

/// Entries per shard before another stripe is worth its overhead. A
/// capacity below this stays a single global LRU (exact classic eviction
/// order, which small-capacity tests and callers rely on).
const ENTRIES_PER_SHARD: usize = 256;

/// Stripe count ceiling — past this, shard selection cost dominates any
/// residual contention win.
const MAX_SHARDS: usize = 16;

/// Shared, thread-safe query cache. Cheap to share behind an `Arc`; all
/// methods take `&self`.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    /// Per-shard capacity (ceil of capacity / shard count).
    shard_capacity: usize,
    shards: Vec<Mutex<Lru>>,
    locks: LockStats,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug, Default)]
struct Lru {
    /// key → (outcome, last-touch tick). Each shard is small (bounded by
    /// `shard_capacity`), so O(n) eviction scans are fine and keep this
    /// std-only.
    map: HashMap<Key, (ViolationOutcome, u64)>,
    tick: u64,
}

type Key = (u64, Option<u64>);

impl QueryCache {
    /// A cache holding at most `capacity` outcomes; 0 disables caching.
    pub fn new(capacity: usize) -> QueryCache {
        let nshards = (capacity / ENTRIES_PER_SHARD).clamp(1, MAX_SHARDS);
        QueryCache {
            capacity,
            shard_capacity: capacity.div_ceil(nshards),
            shards: (0..nshards).map(|_| Mutex::new(Lru::default())).collect(),
            locks: LockStats::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Cache key for a violation query: hash of the canonicalized
    /// `π ∧ ¬checker` plus the conflict budget it will run under.
    pub fn key(pi: &Term, checker: &Term, max_conflicts: Option<u64>) -> (u64, Option<u64>) {
        Self::key_of(&preprocess_violation(pi, checker), max_conflicts)
    }

    /// The key of a query already in canonical form.
    fn key_of(query: &Term, max_conflicts: Option<u64>) -> Key {
        let mut h = Fnv1a::new();
        h.part_display(query);
        (h.finish(), max_conflicts)
    }

    fn shard(&self, key: &Key) -> &Mutex<Lru> {
        // key.0 is already an FNV hash of the canonical formula; fold in
        // the budget so both key components pick the stripe.
        let mix = key.0 ^ key.1.map_or(u64::MAX, |b| b.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        &self.shards[(mix as usize) % self.shards.len()]
    }

    /// Memoized [`violates_budgeted`]: returns the cached outcome when the
    /// canonicalized query was already decided under the same budget,
    /// otherwise solves and records.
    pub fn violates_budgeted(
        &self,
        pi: &Term,
        checker: &Term,
        max_conflicts: Option<u64>,
    ) -> ViolationOutcome {
        self.violates_with(pi, &to_nnf_negated(checker), max_conflicts, |_, query| {
            check_violation(query, max_conflicts)
        })
    }

    /// Memoized violation query with a caller-supplied solver — the hook
    /// that lets a [`crate::SolverSession`] sit behind the cache.
    /// `negated_checker` is the NNF of `¬checker`
    /// ([`crate::SolverSession::negated_checker`]), normalized once by
    /// the caller. The key stays `(canonical formula, budget)`, so a hit
    /// returns exactly what any solving path would have produced (session
    /// answers are byte-identical to fresh ones by construction). On a
    /// miss, `solve` runs outside every shard lock and gets π's NNF and
    /// the canonical query the key was built from, to solve as they
    /// stand ([`crate::SolverSession::violates_canonical`]).
    pub fn violates_with(
        &self,
        pi: &Term,
        negated_checker: &Term,
        max_conflicts: Option<u64>,
        solve: impl FnOnce(&Term, &Term) -> ViolationOutcome,
    ) -> ViolationOutcome {
        let pi_nnf = to_nnf(pi);
        let query = violation_query(&pi_nnf, negated_checker);
        if self.capacity == 0 {
            return solve(&pi_nnf, &query);
        }
        let key = Self::key_of(&query, max_conflicts);
        {
            let mut lru = lock_counted(self.shard(&key), &self.locks);
            lru.tick += 1;
            let tick = lru.tick;
            if let Some(entry) = lru.map.get_mut(&key) {
                entry.1 = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return entry.0.clone();
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let outcome = solve(&pi_nnf, &query);
        let mut lru = lock_counted(self.shard(&key), &self.locks);
        if lru.map.len() >= self.shard_capacity && !lru.map.contains_key(&key) {
            if let Some(oldest) = lru.map.iter().min_by_key(|(_, (_, t))| *t).map(|(k, _)| *k) {
                lru.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        lru.tick += 1;
        let tick = lru.tick;
        lru.map.insert(key, (outcome.clone(), tick));
        outcome
    }

    /// The cache's counters as one uniform snapshot. Counting the entries
    /// does not count as lock acquisitions, so a snapshot never inflates
    /// the `lock_acquires` it or the next one reports.
    pub fn stats(&self) -> lisa_util::CacheStats {
        lisa_util::CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            lock_acquires: self.locks.acquires(),
            lock_contended: self.locks.contended(),
            lock_wait_ns: self.locks.wait_ns(),
            shards: self.shards.len() as u64,
            entries: self.len() as u64,
            ..Default::default()
        }
    }

    /// Number of live entries (for tests and introspection). Its locks
    /// are not counted in the lock statistics, which measure the
    /// queries' own locking.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_cond;

    fn t(s: &str) -> Term {
        parse_cond(s).expect("parse")
    }

    /// Query keys are the cache's identity. Their values are pinned so
    /// that a change in how a key is computed cannot move them.
    #[test]
    fn key_values_are_pinned() {
        let cases = [
            (
                "s != null && s.isClosing == false",
                "s != null && s.isClosing == false && s.ttl > 0",
                None,
            ),
            ("x > 3", "x > 4", Some(1000)),
            ("3 < x || y == \"a\"", "!(x >= 9) -> z", None),
            ("true", "p == true", None),
            ("a == b && (c != 2 || !d)", "false", Some(0)),
        ];
        let got: Vec<Key> =
            cases.iter().map(|(pi, c, b)| QueryCache::key(&t(pi), &t(c), *b)).collect();
        let pinned: Vec<Key> = vec![
            (0xe6d18bd3f5ff1c58, None),
            (0xe85d4bd5a01daf24, Some(1000)),
            (0x58a57ea2f501ec22, None),
            (0xbb3dce17c9f919d1, None),
            (0xe2f60512fedad36c, Some(0)),
        ];
        assert_eq!(got, pinned, "{got:#x?}");
    }

    #[test]
    fn stats_snapshots_do_not_count_their_own_locks() {
        let cache = QueryCache::new(4096);
        cache.violates_budgeted(&t("x > 0"), &t("x > 1"), None);
        let first = cache.stats();
        let second = cache.stats();
        assert_eq!(first.entries, 1);
        assert_eq!(first.lock_acquires, second.lock_acquires, "an idle cache's count moved");
    }

    #[test]
    fn a_miss_solves_the_form_it_was_keyed_by() {
        let cache = QueryCache::new(16);
        let pi = t("s != null && 3 < x");
        let checker = t("s != null && s.isClosing == false && x > 4");
        let session = crate::SolverSession::new(&checker);
        let solved = cache.violates_with(&pi, session.negated_checker(), None, |pi_nnf, query| {
            assert_eq!(*pi_nnf, crate::to_nnf(&pi));
            assert_eq!(*query, preprocess_violation(&pi, &checker));
            session.violates_canonical(pi_nnf, query, None)
        });
        assert!(matches!(solved, ViolationOutcome::Violated(_)), "{solved:?}");
        // A sessionless query of the same formula finds the entry.
        cache.violates_budgeted(&pi, &checker, None);
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
    }

    #[test]
    fn hit_returns_same_verdict_as_solver() {
        let cache = QueryCache::new(16);
        let pi = t("s != null && s.isClosing == false");
        let checker = t("s != null && s.isClosing == false && s.ttl > 0");
        let fresh = cache.violates_budgeted(&pi, &checker, None);
        let cached = cache.violates_budgeted(&pi, &checker, None);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        match (&fresh, &cached) {
            (ViolationOutcome::Violated(a), ViolationOutcome::Violated(b)) => {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
            other => panic!("expected Violated twice, got {other:?}"),
        }
    }

    #[test]
    fn canonically_equal_queries_share_an_entry() {
        let cache = QueryCache::new(16);
        let checker = t("x > 4");
        // Different spellings of the same bound canonicalize to the same
        // atom (`canonicalize_atom` moves the constant right).
        let pi1 = t("x > 3");
        let pi2 = t("3 < x");
        cache.violates_budgeted(&pi1, &checker, None);
        cache.violates_budgeted(&pi2, &checker, None);
        assert_eq!(cache.stats().hits, 1, "canonically-equal π should hit");
    }

    #[test]
    fn budget_is_part_of_the_key() {
        let cache = QueryCache::new(16);
        let pi = t("x > 0");
        let checker = t("x > 1");
        cache.violates_budgeted(&pi, &checker, None);
        cache.violates_budgeted(&pi, &checker, Some(1000));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn lru_evicts_the_oldest_entry() {
        let cache = QueryCache::new(2);
        assert_eq!(cache.stats().shards, 1, "small capacity keeps exact global LRU");
        let checker = t("x > 0");
        cache.violates_budgeted(&t("a == true"), &checker, None);
        cache.violates_budgeted(&t("b == true"), &checker, None);
        // Touch the first entry so the second becomes LRU.
        cache.violates_budgeted(&t("a == true"), &checker, None);
        cache.violates_budgeted(&t("c == true"), &checker, None);
        assert_eq!(cache.stats().evictions, 1);
        // "a" survived; "b" was evicted.
        cache.violates_budgeted(&t("a == true"), &checker, None);
        cache.violates_budgeted(&t("b == true"), &checker, None);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = QueryCache::new(0);
        let pi = t("x > 0");
        cache.violates_budgeted(&pi, &pi, None);
        cache.violates_budgeted(&pi, &pi, None);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn large_capacity_stripes_without_losing_hits() {
        let cache = QueryCache::new(4096);
        assert!(cache.stats().shards > 1, "large capacity should stripe");
        let checker = t("x > 0");
        for name in ["a", "b", "c", "d"] {
            cache.violates_budgeted(&t(&format!("{name} == true")), &checker, None);
        }
        for name in ["a", "b", "c", "d"] {
            cache.violates_budgeted(&t(&format!("{name} == true")), &checker, None);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (4, 4));
        assert_eq!(cache.len(), 4);
        assert!(cache.stats().lock_acquires > 0);
    }
}
