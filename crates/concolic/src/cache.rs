//! Memoized concolic trace batches.
//!
//! Running the test suite against a target is by far the most expensive
//! stage of a rule check, and it is a pure function of (program, tests,
//! target, aliases, policy, step budget). The cache keys a batch by the
//! content fingerprints of all of those, so two rules sharing a target —
//! or the same rule re-checked against an unchanged version — replay the
//! recorded traces instead of re-executing. Storage is a lock-striped,
//! single-flight [`ShardedMap`]: parallel rules missing the same batch
//! concurrently share one execution (the waiter counts a hit), and
//! lookups of different batches never serialize on a common mutex.
//!
//! One deliberate hole: batches run under a *wall-clock* budget are never
//! cached. Their truncation point depends on machine timing, so caching
//! them could make a cached gate render different output than an uncached
//! one, breaking the byte-identical transparency invariant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lisa_analysis::{AliasMap, TargetSpec};
use lisa_lang::Program;
use lisa_util::{Fnv1a, ShardedMap};

use crate::engine::Policy;
use crate::harness::{run_tests_budgeted, HarnessBudget, HarnessOutcome, TestCase};

/// Lock shards; see `AnalysisCache` for the sizing rationale.
const SHARDS: usize = 16;

/// Thread-safe cache of harness batch outcomes, shared behind an `Arc`.
/// Outcomes are stored as `Arc<HarnessOutcome>` (trace batches can be
/// large, and `TestRun` is not `Clone`).
#[derive(Debug)]
pub struct TraceCache {
    inner: ShardedMap<u64, HarnessOutcome>,
    /// Batches that bypassed the cache because a wall budget was set.
    uncacheable: AtomicU64,
}

impl Default for TraceCache {
    fn default() -> TraceCache {
        TraceCache::new()
    }
}

impl TraceCache {
    pub fn new() -> TraceCache {
        TraceCache { inner: ShardedMap::new(SHARDS), uncacheable: AtomicU64::new(0) }
    }

    fn key(
        program_fp: u64,
        tests: &[TestCase],
        target: &TargetSpec,
        aliases: &AliasMap,
        policy: &Policy,
        budget: &HarnessBudget,
    ) -> u64 {
        let mut h = Fnv1a::new();
        h.part_u64(program_fp);
        for t in tests {
            h.part(t.name.as_bytes());
            h.part(t.entry.as_bytes());
        }
        h.part_display(target);
        // AliasMap iterates in sorted order, so equal maps hash equally.
        for (f, path, placeholder) in aliases.iter() {
            h.part(f.as_bytes());
            h.part(path.as_bytes());
            h.part(placeholder.as_bytes());
        }
        h.part(match policy {
            Policy::RecordAll => b"record-all",
            Policy::RelevantOnly => b"relevant-only",
        });
        h.part_u64(budget.max_steps_per_test.map_or(u64::MAX, |s| s));
        h.finish()
    }

    /// Memoized [`run_tests_budgeted`]. `program_fp` must be the content
    /// fingerprint of `program` (the caller already has it; recomputing
    /// per batch would cost a full pretty-print).
    #[allow(clippy::too_many_arguments)]
    pub fn run_tests_budgeted(
        &self,
        program_fp: u64,
        program: &Program,
        tests: &[TestCase],
        target: &TargetSpec,
        aliases: &AliasMap,
        policy: &Policy,
        budget: &HarnessBudget,
    ) -> Arc<HarnessOutcome> {
        if budget.wall.is_some() {
            // Wall-budget truncation is timing-dependent: not a pure
            // function of the key, so never cached.
            self.uncacheable.fetch_add(1, Ordering::Relaxed);
            return Arc::new(run_tests_budgeted(program, tests, target, aliases, policy, budget));
        }
        let key = Self::key(program_fp, tests, target, aliases, policy, budget);
        self.inner
            .get_or_build(key, || run_tests_budgeted(program, tests, target, aliases, policy, budget))
    }

    /// The cache's counters as one uniform snapshot (`uncacheable` counts
    /// wall-budget batches that bypassed storage).
    pub fn stats(&self) -> lisa_util::CacheStats {
        lisa_util::CacheStats {
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            ..self.inner.stats()
        }
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fixture() -> (Program, Vec<TestCase>, TargetSpec) {
        let p = Program::parse_single(
            "demo",
            "struct S { ok: bool }\n\
             fn act(s: S) {}\n\
             fn drive(s: S) { if (s != null) { act(s); } }\n\
             fn test_drive(s: S) { drive(s); }",
        )
        .expect("parse");
        let tests = vec![TestCase::new("test_drive", "drives")];
        (p, tests, TargetSpec::Call { callee: "act".into() })
    }

    /// Trace-cache keys name stored batches. Their values are pinned so
    /// that a change in how a key is computed cannot move them.
    #[test]
    fn key_values_are_pinned() {
        let tests = vec![
            TestCase::new("test_drive", "drives"),
            TestCase { name: "t2".into(), summary: String::new(), entry: "test_other".into() },
        ];
        let mut aliases = AliasMap::default();
        aliases.insert("drive", "s", "e");
        aliases.insert("*", "sessions", "sessions");
        let targets = [
            TargetSpec::Call { callee: "act".into() },
            TargetSpec::Builtin { name: "blocking_io".into() },
            TargetSpec::BuiltinInSync { name: "blocking_io".into() },
            TargetSpec::BuiltinInCaller { name: "log".into(), caller: "drive".into() },
        ];
        let mut got = Vec::new();
        for (i, target) in targets.iter().enumerate() {
            let budget = HarnessBudget {
                max_steps_per_test: (i % 2 == 1).then_some(5000),
                wall: None,
            };
            let policy = if i < 2 { Policy::RelevantOnly } else { Policy::RecordAll };
            let fp = 0x0123_4567_89ab_cdef;
            got.push(TraceCache::key(fp, &tests, target, &aliases, &policy, &budget));
        }
        got.push(TraceCache::key(
            7,
            &[],
            &targets[0],
            &AliasMap::default(),
            &Policy::RelevantOnly,
            &HarnessBudget::default(),
        ));
        let pinned: Vec<u64> = vec![
            0xce5512021b867a45,
            0xc2baac8178dbeb4f,
            0x38be50c8ca71009c,
            0xfeeb2d90a205c277,
            0x1ea2e93eecc321bf,
        ];
        assert_eq!(got, pinned, "{got:#x?}");
    }

    #[test]
    fn identical_batches_share_one_execution() {
        let (p, tests, target) = fixture();
        let fp = lisa_lang::fingerprint_program(&p);
        let cache = TraceCache::new();
        let aliases = AliasMap::default();
        let budget = HarnessBudget::default();
        let a = cache.run_tests_budgeted(
            fp,
            &p,
            &tests,
            &target,
            &aliases,
            &Policy::RelevantOnly,
            &budget,
        );
        let b = cache.run_tests_budgeted(
            fp,
            &p,
            &tests,
            &target,
            &aliases,
            &Policy::RelevantOnly,
            &budget,
        );
        assert!(Arc::ptr_eq(&a, &b), "hit must return the same batch");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A different policy is a different batch.
        cache.run_tests_budgeted(
            fp,
            &p,
            &tests,
            &target,
            &aliases,
            &Policy::RecordAll,
            &budget,
        );
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn wall_budget_bypasses_the_cache() {
        let (p, tests, target) = fixture();
        let fp = lisa_lang::fingerprint_program(&p);
        let cache = TraceCache::new();
        let budget = HarnessBudget { wall: Some(Duration::from_secs(60)), ..Default::default() };
        for _ in 0..2 {
            cache.run_tests_budgeted(
                fp,
                &p,
                &tests,
                &target,
                &AliasMap::default(),
                &Policy::RelevantOnly,
                &budget,
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.uncacheable), (0, 0, 2));
        assert!(cache.is_empty());
    }
}
