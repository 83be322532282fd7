//! Target statements.
//!
//! A low-level semantic constrains a *target statement* — in the paper,
//! "the code statement where the condition should be checked", identified
//! from the bug fix. In SIR, targets are call-shaped: a call to a named
//! user function (`create_ephemeral_node(...)`), a builtin invocation
//! (`blocking_io(...)`), or the generalized form "builtin while holding
//! any lock" used by the Figure-6 rule family.

use crate::callgraph::{CallGraph, SiteId};
use std::fmt;

/// What counts as the target statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TargetSpec {
    /// Any call to this user function.
    Call { callee: String },
    /// Any invocation of this builtin.
    Builtin { name: String },
    /// Any invocation of this builtin lexically inside a `sync` block —
    /// the generalized "no blocking I/O within synchronized blocks" shape.
    BuiltinInSync { name: String },
    /// Any invocation of this builtin inside one specific function — the
    /// narrow, pre-generalization rule shape mined from a single fix.
    BuiltinInCaller { name: String, caller: String },
}

impl TargetSpec {
    /// The function/builtin name the spec keys on.
    pub fn callee(&self) -> &str {
        match self {
            TargetSpec::Call { callee } => callee,
            TargetSpec::Builtin { name }
            | TargetSpec::BuiltinInSync { name }
            | TargetSpec::BuiltinInCaller { name, .. } => name,
        }
    }

    /// Does a call site match this spec?
    pub fn matches(&self, site: &crate::callgraph::CallSite) -> bool {
        match self {
            TargetSpec::Call { callee } => !site.builtin && site.callee == *callee,
            TargetSpec::Builtin { name } => site.builtin && site.callee == *name,
            TargetSpec::BuiltinInSync { name } => {
                site.builtin && site.callee == *name && !site.sync_locks.is_empty()
            }
            TargetSpec::BuiltinInCaller { name, caller } => {
                site.builtin && site.callee == *name && site.caller == *caller
            }
        }
    }

    /// All matching sites in a call graph.
    pub fn sites(&self, graph: &CallGraph) -> Vec<SiteId> {
        (0..graph.sites.len()).filter(|&i| self.matches(graph.site(i))).collect()
    }
}

impl fmt::Display for TargetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetSpec::Call { callee } => write!(f, "call {callee}()"),
            TargetSpec::Builtin { name } => write!(f, "builtin {name}()"),
            TargetSpec::BuiltinInSync { name } => write!(f, "builtin {name}() inside sync"),
            TargetSpec::BuiltinInCaller { name, caller } => {
                write!(f, "builtin {name}() inside {caller}()")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_lang::Program;

    fn program() -> Program {
        Program::parse_single(
            "t",
            "struct S { v: int }\n\
             fn create_node(s: S) {}\n\
             fn a(s: S) { create_node(s); }\n\
             fn b(s: S) { create_node(s); blocking_io(\"free\"); }\n\
             fn c() { sync (l) { blocking_io(\"locked\"); } }",
        )
        .expect("p")
    }

    #[test]
    fn call_target_matches_user_calls() {
        let p = program();
        let g = CallGraph::build(&p);
        let t = TargetSpec::Call { callee: "create_node".into() };
        assert_eq!(t.sites(&g).len(), 2);
    }

    #[test]
    fn builtin_target_matches_all_invocations() {
        let p = program();
        let g = CallGraph::build(&p);
        let t = TargetSpec::Builtin { name: "blocking_io".into() };
        assert_eq!(t.sites(&g).len(), 2);
    }

    #[test]
    fn builtin_in_sync_only_matches_locked_sites() {
        let p = program();
        let g = CallGraph::build(&p);
        let t = TargetSpec::BuiltinInSync { name: "blocking_io".into() };
        let sites = t.sites(&g);
        assert_eq!(sites.len(), 1);
        assert_eq!(g.site(sites[0]).caller, "c");
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(TargetSpec::Call { callee: "f".into() }.to_string(), "call f()");
        assert_eq!(
            TargetSpec::BuiltinInSync { name: "blocking_io".into() }.to_string(),
            "builtin blocking_io() inside sync"
        );
    }
}
