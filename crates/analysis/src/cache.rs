//! Memoized static-analysis artifacts, shared across rules and versions.
//!
//! One gate run checks many rules against the same program, and
//! successive versions usually share most of their code — yet the call
//! graph and each target's execution tree are pure functions of (program,
//! target, limits). The cache keys them by the program's content-hash
//! fingerprint (see `lisa_lang::fingerprint`), so entries from a previous
//! version are reused verbatim when the source is unchanged and are
//! simply never looked up (no invalidation protocol needed) when it is
//! not.
//!
//! Artifacts are returned as `Arc` clones: rules running on parallel
//! workers share one materialized graph/tree instead of cloning it. The
//! maps are lock-striped ([`ShardedMap`]) so a wide worker pool does not
//! serialize on one mutex, and builds are single-flight: two rules
//! missing the same tree concurrently share one construction (the waiter
//! counts a hit, not a duplicate miss).

use std::sync::Arc;

use lisa_util::ShardedMap;

use crate::callgraph::CallGraph;
use crate::target::TargetSpec;
use crate::tree::{ExecutionTree, TreeLimits};

/// Lock shards per map. Cache keys hash uniformly (program fingerprints
/// and rendered targets), so a modest stripe count already makes same-key
/// collisions the only contention left — and those are the single-flight
/// coalescing we *want*.
const SHARDS: usize = 16;

/// Thread-safe cache of call graphs and execution trees. Cheap to share
/// behind an `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct AnalysisCache {
    graphs: ShardedMap<u64, CallGraph>,
    trees: ShardedMap<TreeKey, ExecutionTree>,
}

/// (program fingerprint, rendered target, limits, exclude-prefix).
type TreeKey = (u64, String, usize, usize, String);

impl Default for AnalysisCache {
    fn default() -> AnalysisCache {
        AnalysisCache::new()
    }
}

impl AnalysisCache {
    pub fn new() -> AnalysisCache {
        AnalysisCache { graphs: ShardedMap::new(SHARDS), trees: ShardedMap::new(SHARDS) }
    }

    /// The call graph for the program fingerprinted `fp`, building it
    /// with `build` on first use.
    pub fn callgraph(&self, fp: u64, build: impl FnOnce() -> CallGraph) -> Arc<CallGraph> {
        self.graphs.get_or_build(fp, build)
    }

    /// The execution tree for `target` under `limits` with test functions
    /// excluded by `test_prefix`, in the program fingerprinted `fp`.
    pub fn tree(
        &self,
        fp: u64,
        target: &TargetSpec,
        limits: TreeLimits,
        test_prefix: &str,
        build: impl FnOnce() -> ExecutionTree,
    ) -> Arc<ExecutionTree> {
        let key: TreeKey =
            (fp, target.to_string(), limits.max_chains, limits.max_depth, test_prefix.to_string());
        self.trees.get_or_build(key, build)
    }

    /// Both maps' counters merged into one uniform snapshot.
    pub fn stats(&self) -> lisa_util::CacheStats {
        self.graphs.stats().merge(self.trees.stats())
    }

    /// Live entry count across both maps (for tests and introspection).
    pub fn len(&self) -> usize {
        self.graphs.len() + self.trees.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::execution_tree_filtered;
    use lisa_lang::Program;

    fn program() -> Program {
        Program::parse_single(
            "demo",
            "struct S { ok: bool }\n\
             fn act(s: S) {}\n\
             fn path_a(s: S) { act(s); }\n\
             fn test_drive(s: S) { path_a(s); }",
        )
        .expect("parse")
    }

    #[test]
    fn callgraph_is_built_once_per_fingerprint() {
        let p = program();
        let cache = AnalysisCache::new();
        let mut builds = 0;
        for _ in 0..3 {
            let g = cache.callgraph(1, || {
                builds += 1;
                CallGraph::build(&p)
            });
            assert!(g.functions().iter().any(|f| f == "act"));
        }
        assert_eq!(builds, 1);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 1);
        // A different fingerprint is a different program: rebuild.
        cache.callgraph(2, || CallGraph::build(&p));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn tree_key_includes_target_limits_and_prefix() {
        let p = program();
        let graph = CallGraph::build(&p);
        let cache = AnalysisCache::new();
        let target = TargetSpec::Call { callee: "act".into() };
        let build = |limits: TreeLimits, prefix: &str| {
            let prefix = prefix.to_string();
            execution_tree_filtered(&graph, &target, limits, &move |f| f.starts_with(&prefix))
        };
        let t1 = cache.tree(1, &target, TreeLimits::default(), "test_", || {
            build(TreeLimits::default(), "test_")
        });
        assert_eq!(t1.chains[0].render(&graph), "path_a [act]", "test_drive excluded");
        // Same key hits.
        cache.tree(1, &target, TreeLimits::default(), "test_", || unreachable!());
        assert_eq!(cache.stats().hits, 1);
        // Different prefix, limits, or fingerprint miss.
        let t2 = cache.tree(1, &target, TreeLimits::default(), "nope_", || {
            build(TreeLimits::default(), "nope_")
        });
        assert_eq!(t2.chains[0].render(&graph), "test_drive -> path_a [act]");
        let tight = TreeLimits { max_chains: 1, max_depth: 2 };
        cache.tree(1, &target, tight, "test_", || build(tight, "test_"));
        cache.tree(9, &target, TreeLimits::default(), "test_", || {
            build(TreeLimits::default(), "test_")
        });
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn lock_counters_track_lookups() {
        let p = program();
        let cache = AnalysisCache::new();
        cache.callgraph(1, || CallGraph::build(&p));
        cache.callgraph(1, || unreachable!());
        let stats = cache.stats();
        assert!(stats.lock_acquires >= 2);
        assert_eq!(stats.lock_contended, 0, "single thread never blocks");
        assert_eq!(stats.coalesced, 0);
    }
}
