//! Execution trees.
//!
//! Paper §3.2: *"we identify those paths leading to the target
//! statement … by statically building a call graph and traversing all
//! paths to each target. The result is an execution tree rooted at the
//! target statement, with leaves representing entry functions for each
//! path."*
//!
//! A [`CallChain`] is one root-to-leaf path of that tree: the sequence of
//! call sites from an entry function down to the function containing the
//! target site. Chains are acyclic (recursive back-edges are skipped) and
//! enumeration is capped to keep adversarial graphs bounded.

use crate::callgraph::{CallGraph, SiteId};
use crate::target::TargetSpec;

/// One path from an entry function to a target site.
#[derive(Debug, Clone, PartialEq)]
pub struct CallChain<'p> {
    /// The matched target site (innermost).
    pub target_site: SiteId,
    /// Call sites from the entry function (first) down to the caller of
    /// the function containing the target site (last). Empty when the
    /// target site sits directly in an entry function.
    pub sites: Vec<SiteId>,
    /// The entry function this chain starts at.
    pub entry: &'p str,
}

impl<'p> CallChain<'p> {
    /// Functions on this chain, entry first, ending with the function
    /// containing the target site.
    pub fn functions<'g>(&'g self, graph: &'g CallGraph<'p>) -> impl Iterator<Item = &'p str> + 'g {
        std::iter::once(self.entry).chain(self.sites.iter().map(|&sid| graph.site(sid).callee))
    }

    /// Human-readable rendering `entry -> f -> g [target]`.
    pub fn render(&self, graph: &CallGraph<'p>) -> String {
        let mut out = String::new();
        for (i, f) in self.functions(graph).enumerate() {
            if i > 0 {
                out.push_str(" -> ");
            }
            out.push_str(f);
        }
        out.push_str(" [");
        out.push_str(graph.site(self.target_site).callee);
        out.push(']');
        out
    }
}

/// The execution tree for one target spec.
#[derive(Debug, Clone)]
pub struct ExecutionTree<'p> {
    pub chains: Vec<CallChain<'p>>,
    /// True when enumeration hit the cap and chains were dropped.
    pub truncated: bool,
}

/// Enumeration limits.
#[derive(Debug, Clone, Copy)]
pub struct TreeLimits {
    pub max_chains: usize,
    pub max_depth: usize,
}

impl Default for TreeLimits {
    fn default() -> Self {
        TreeLimits { max_chains: 10_000, max_depth: 32 }
    }
}

/// Build the execution tree for `target` over `graph`.
pub fn execution_tree<'p>(
    graph: &CallGraph<'p>,
    target: &TargetSpec,
    limits: TreeLimits,
) -> ExecutionTree<'p> {
    execution_tree_filtered(graph, target, limits, &|_| false)
}

/// Like [`execution_tree`], but callers matching `exclude` are not walked
/// into — used to keep *test* functions out of the system's execution
/// tree (tests are inputs, not request paths).
pub fn execution_tree_filtered<'p>(
    graph: &CallGraph<'p>,
    target: &TargetSpec,
    limits: TreeLimits,
    exclude: &dyn Fn(&str) -> bool,
) -> ExecutionTree<'p> {
    let mut span = lisa_telemetry::span("analysis.tree");
    let mut chains = Vec::new();
    let mut truncated = false;
    for site_id in target.sites(graph) {
        let holder = graph.site(site_id).caller;
        // Sites inside excluded functions (tests) are not system paths.
        if exclude(holder) {
            continue;
        }
        // DFS upward from the function containing the target site.
        let mut stack: Vec<(&'p str, Vec<SiteId>)> = vec![(holder, Vec::new())];
        while let Some((f, below)) = stack.pop() {
            if chains.len() >= limits.max_chains {
                truncated = true;
                break;
            }
            let callers = graph.callers_of(f);
            // Filter callers that would revisit a function already on the
            // chain (cycle) or exceed depth.
            let mut extended = false;
            if below.len() < limits.max_depth {
                for &caller_site in callers {
                    let caller_fn = graph.site(caller_site).caller;
                    let on_chain =
                        caller_fn == f || below.iter().any(|&s| graph.site(s).caller == caller_fn);
                    if on_chain || exclude(caller_fn) {
                        continue;
                    }
                    let mut next = Vec::with_capacity(below.len() + 1);
                    next.push(caller_site);
                    next.extend(below.iter().copied());
                    stack.push((caller_fn, next));
                    extended = true;
                }
            }
            if !extended {
                // `f` is a root for this chain (entry function or cycle cut).
                chains.push(CallChain { target_site: site_id, sites: below, entry: f });
            }
        }
    }
    // Deterministic order: by entry then rendered shape.
    chains.sort_by(|a, b| {
        (&a.entry, a.target_site, &a.sites).cmp(&(&b.entry, b.target_site, &b.sites))
    });
    span.arg("chains", chains.len() as u64);
    span.arg("truncated", u64::from(truncated));
    lisa_telemetry::counter_add("analysis.chains", chains.len() as u64);
    if truncated {
        lisa_telemetry::counter_add("analysis.trees_truncated", 1);
        lisa_telemetry::event("analysis.tree_truncated", format!(
            "chain enumeration capped at {} (depth {})",
            limits.max_chains, limits.max_depth
        ));
    }
    ExecutionTree { chains, truncated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_lang::Program;

    fn parse(src: &str) -> Program {
        Program::parse_single("t", src).expect("p")
    }

    fn tree_for(p: &Program, target: TargetSpec) -> (CallGraph<'_>, ExecutionTree<'_>) {
        let g = CallGraph::build(p);
        let t = execution_tree(&g, &target, TreeLimits::default());
        (g, t)
    }

    const DIAMOND: &str = "struct S { v: int }\n\
         fn target(s: S) {}\n\
         fn helper(x: S) { target(x); }\n\
         fn entry_a(s: S) { helper(s); }\n\
         fn entry_b(s: S) { helper(s); }\n\
         fn entry_c(s: S) { target(s); }";

    #[test]
    fn enumerates_all_chains() {
        let p = parse(DIAMOND);
        let (g, t) = tree_for(&p, TargetSpec::Call { callee: "target".into() });
        assert!(!t.truncated);
        let rendered: Vec<String> = t.chains.iter().map(|c| c.render(&g)).collect();
        assert_eq!(t.chains.len(), 3, "{rendered:?}");
        assert!(rendered.contains(&"entry_a -> helper [target]".to_string()));
        assert!(rendered.contains(&"entry_b -> helper [target]".to_string()));
        assert!(rendered.contains(&"entry_c [target]".to_string()));
    }

    #[test]
    fn leaves_are_entry_functions() {
        let p = parse(DIAMOND);
        let (_, t) = tree_for(&p, TargetSpec::Call { callee: "target".into() });
        let mut entries: Vec<&str> = t.chains.iter().map(|c| c.entry).collect();
        entries.sort_unstable();
        assert_eq!(entries, vec!["entry_a", "entry_b", "entry_c"]);
    }

    #[test]
    fn recursion_is_cut_not_looped() {
        let p = parse(
            "fn target() {}\n\
             fn r(n: int) { if (n > 0) { r(n - 1); } target(); }",
        );
        let (_, t) = tree_for(&p, TargetSpec::Call { callee: "target".into() });
        // r is self-recursive; the chain should cut at r once.
        assert_eq!(t.chains.len(), 1);
        assert_eq!(t.chains[0].entry, "r");
    }

    #[test]
    fn multiple_target_sites_fan_out() {
        let p = parse(
            "struct S { v: int }\n\
             fn target(s: S) {}\n\
             fn a(s: S) { target(s); target(s); }",
        );
        let (_, t) = tree_for(&p, TargetSpec::Call { callee: "target".into() });
        assert_eq!(t.chains.len(), 2);
    }

    #[test]
    fn cap_marks_truncation() {
        // A chain of 12 forks gives 2^12 chains; cap at 100.
        let mut src = String::from("fn target() {}\nfn f0() { target(); }\n");
        for i in 0..12 {
            src.push_str(&format!("fn a{i}() {{ f{i}(); }}\nfn b{i}() {{ f{i}(); }}\n"));
            src.push_str(&format!("fn f{}() {{ a{i}(); b{i}(); }}\n", i + 1));
        }
        let p = Program::parse_single("t", &src).expect("p");
        let g = CallGraph::build(&p);
        let t = execution_tree(
            &g,
            &TargetSpec::Call { callee: "target".into() },
            TreeLimits { max_chains: 100, max_depth: 64 },
        );
        assert!(t.truncated);
        assert_eq!(t.chains.len(), 100);
    }

    #[test]
    fn chain_functions_order() {
        let p = parse(DIAMOND);
        let (g, t) = tree_for(&p, TargetSpec::Call { callee: "target".into() });
        let chain = t.chains.iter().find(|c| c.entry == "entry_a").expect("chain");
        assert_eq!(chain.functions(&g).collect::<Vec<_>>(), vec!["entry_a", "helper"]);
    }
}
