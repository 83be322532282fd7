//! Comparison baselines (paper Figure 4).
//!
//! LISA "occupies the middle ground between testing and verification":
//!
//! - **Regression testing** validates concrete executions only — each
//!   regression test encodes one scenario, so a fix regresses as soon as
//!   code evolves outside the test scope. Modelled by
//!   [`regression_test_baseline`]: replay the tests the original fix
//!   added and call a regression *detected* only if one fails.
//! - **Refinement-based verification** proves every path but at
//!   heavyweight cost. Modelled by [`verification_cost`]: the exhaustive
//!   path space that a full proof would have to discharge (static chain
//!   count × intraprocedural path products), alongside an exhaustive
//!   unpruned pipeline configuration for wall-clock comparison.

use std::time::Instant;

use lisa_analysis::{execution_tree, paths_to_stmt, CallGraph, TargetSpec, TreeLimits};
use lisa_concolic::SystemVersion;
use lisa_lang::{Interp, NullTracer, Value};

/// Outcome of replaying a set of named tests.
#[derive(Debug, Clone)]
pub struct TestReplay {
    pub tests_run: usize,
    pub failing: Vec<String>,
    pub wall: std::time::Duration,
}

impl TestReplay {
    /// The baseline flags a regression only when a replayed test fails.
    pub fn detected(&self) -> bool {
        !self.failing.is_empty()
    }
}

/// Replay `test_names` (the regression tests added by the original fix)
/// against a version. Tests absent from the version are skipped — exactly
/// the blind spot of the approach when code evolves.
pub fn regression_test_baseline(version: &SystemVersion, test_names: &[String]) -> TestReplay {
    let started = Instant::now();
    let mut failing = Vec::new();
    let mut tests_run = 0;
    for name in test_names {
        if version.program.function(name).is_none() {
            continue;
        }
        tests_run += 1;
        let mut interp = Interp::new(&version.program);
        if interp.call(name, Vec::<Value>::new(), &mut NullTracer).is_err() {
            failing.push(name.clone());
        }
    }
    TestReplay { tests_run, failing, wall: started.elapsed() }
}

/// Cost model for full verification: the number of execution paths a
/// refinement proof must cover for this target — every static chain times
/// the product of intraprocedural guard combinations along it.
pub fn verification_cost(version: &SystemVersion, target: &TargetSpec) -> u64 {
    let graph = CallGraph::build(&version.program);
    let tree = execution_tree(&graph, target, TreeLimits::default());
    let mut total: u64 = 0;
    for chain in &tree.chains {
        let mut product: u64 = 1;
        // Paths to each call site along the chain.
        for &sid in &chain.sites {
            let site = graph.site(sid);
            if let Some(f) = version.program.function(site.caller) {
                if let Some(p) = paths_to_stmt(f, site.stmt) {
                    product = product.saturating_mul(p.max(1));
                }
            }
        }
        // Paths to the target site in its holder.
        let tsite = graph.site(chain.target_site);
        if let Some(f) = version.program.function(tsite.caller) {
            if let Some(p) = paths_to_stmt(f, tsite.stmt) {
                product = product.saturating_mul(p.max(1));
            }
        }
        total = total.saturating_add(product);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_concolic::discover_tests;
    use lisa_lang::Program;

    /// Fixed version: regression test passes. Regressed version: the
    /// *original* regression test still passes (it exercises the fixed
    /// path), which is exactly the gap the paper describes.
    fn version(regressed: bool) -> SystemVersion {
        let prep_guard = if regressed { "s2 == null" } else { "s2 == null || s2.closing" };
        let src = format!(
            "struct Session {{ id: int, closing: bool }}\n\
             global sessions: map<int, Session>;\n\
             global nodes: map<str, int>;\n\
             fn create_ephemeral(s: Session, path: str) {{ nodes.put(path, s.id); }}\n\
             fn touch_create(sid: int, path: str) {{\n\
                 let s: Session = sessions.get(sid);\n\
                 if (s == null || s.closing) {{ return; }}\n\
                 create_ephemeral(s, path);\n\
             }}\n\
             fn prep_create(sid: int, path: str) {{\n\
                 let s2: Session = sessions.get(sid);\n\
                 if ({prep_guard}) {{ return; }}\n\
                 create_ephemeral(s2, path);\n\
             }}\n\
             fn test_no_create_on_closing_touch() {{\n\
                 let s = new Session {{ id: 1, closing: true }};\n\
                 sessions.put(1, s);\n\
                 touch_create(1, \"/a\");\n\
                 assert(nodes.contains(\"/a\") == false, \"no node on closing session\");\n\
             }}"
        );
        let p = Program::parse_single("zk", &src).expect("p");
        let tests = discover_tests(&p, "test_");
        SystemVersion::new(if regressed { "regressed" } else { "fixed" }, p, tests)
    }

    #[test]
    fn regression_test_passes_on_fixed_version() {
        let v = version(false);
        let replay =
            regression_test_baseline(&v, &["test_no_create_on_closing_touch".to_string()]);
        assert_eq!(replay.tests_run, 1);
        assert!(!replay.detected());
    }

    #[test]
    fn regression_test_misses_the_new_path() {
        // The regression escaped through prep_create; the old test still
        // exercises touch_create and passes — the baseline is blind.
        let v = version(true);
        let replay =
            regression_test_baseline(&v, &["test_no_create_on_closing_touch".to_string()]);
        assert!(!replay.detected(), "the Figure-1 gap: old test still green");
    }

    #[test]
    fn removed_test_is_skipped_not_failed() {
        let v = version(false);
        let replay = regression_test_baseline(&v, &["test_deleted_long_ago".to_string()]);
        assert_eq!(replay.tests_run, 0);
        assert!(!replay.detected());
    }

    #[test]
    fn verification_cost_counts_paths() {
        let v = version(false);
        let cost =
            verification_cost(&v, &TargetSpec::Call { callee: "create_ephemeral".into() });
        // Two chains, one guard each on the way to the target.
        assert!(cost >= 2, "cost {cost}");
    }
}
