//! Static call graph construction.
//!
//! The paper uses Soot to build a call graph and traverse "all paths to
//! each target". SIR has no dynamic dispatch, so the call graph is exact:
//! every call site names its callee statically. Each site keeps its
//! argument expressions (whose syntactic paths drive placeholder
//! aliasing) and the locks it sits inside lexically (for the
//! blocking-I/O rule family).
//!
//! The graph borrows from the [`Program`] it was built over: a site's
//! caller, callee, argument expressions and lock names are the AST's
//! own, so building a graph copies no string.

use std::borrow::Cow;

use lisa_lang::ast::{Expr, ExprKind, FnDecl, Stmt, StmtKind};
use lisa_lang::symbolic::expr_path;
use lisa_lang::types::builtin_signature;
use lisa_lang::{Program, Span, StmtId};

/// Index of a call site in the graph.
pub type SiteId = usize;

/// One static call site. Every name and expression it holds borrows
/// from the program the graph was built over.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSite<'p> {
    /// The function the call sits in.
    pub caller: &'p str,
    /// The called function or builtin.
    pub callee: &'p str,
    /// Statement the call appears in.
    pub stmt: StmtId,
    pub span: Span,
    /// The argument expressions, in order.
    pub args: &'p [Expr],
    /// True when the callee is a builtin (not a user function).
    pub builtin: bool,
    /// Locks lexically held at the call site (innermost last). Empty, and
    /// unallocated, outside `sync` blocks.
    pub sync_locks: Vec<&'p str>,
}

impl<'p> CallSite<'p> {
    /// Syntactic path of argument `i` (`s`, `req.session`), when that
    /// argument is path-shaped. Derived from the argument expression on
    /// each call; most sites are never asked. A plain variable borrows its
    /// name from the program; only a field path is built.
    pub fn arg_path(&self, i: usize) -> Option<Cow<'p, str>> {
        let arg = self.args.get(i)?;
        match &arg.kind {
            ExprKind::Var(v) => Some(Cow::Borrowed(v)),
            _ => expr_path(arg).map(Cow::Owned),
        }
    }
}

/// The call graph of a program.
#[derive(Debug, Clone, Default)]
pub struct CallGraph<'p> {
    pub sites: Vec<CallSite<'p>>,
    /// Every site id sorted by `(callee, id)`: the sites calling one
    /// function are one run, found by binary search.
    by_callee: Vec<SiteId>,
    /// Every site id sorted by `(caller, id)`.
    by_caller: Vec<SiteId>,
    fn_names: Vec<&'p str>,
}

impl<'p> CallGraph<'p> {
    /// Build the exact call graph.
    pub fn build(program: &'p Program) -> CallGraph<'p> {
        let mut span = lisa_telemetry::span("analysis.callgraph");
        let mut sites = Vec::new();
        let mut fn_names = Vec::new();
        let mut locks = Vec::new();
        for f in program.functions() {
            fn_names.push(f.name.as_str());
            collect_sites(f, &f.body, &mut locks, &mut sites);
        }
        let by_callee = sorted_ids(&sites, |s| s.callee);
        let by_caller = sorted_ids(&sites, |s| s.caller);
        span.arg("functions", fn_names.len() as u64);
        span.arg("sites", sites.len() as u64);
        lisa_telemetry::counter_add("analysis.callgraph_builds", 1);
        CallGraph { sites, by_callee, by_caller, fn_names }
    }

    pub fn site(&self, id: SiteId) -> &CallSite<'p> {
        &self.sites[id]
    }

    /// Sites that call `callee`, in site order.
    pub fn callers_of(&self, callee: &str) -> &[SiteId] {
        self.run(&self.by_callee, |s| s.callee, callee)
    }

    /// Sites inside `caller`, in site order.
    pub fn sites_in(&self, caller: &str) -> &[SiteId] {
        self.run(&self.by_caller, |s| s.caller, caller)
    }

    /// The run of `ids` (sorted by `key`) whose key is `name`.
    fn run<'g>(
        &self,
        ids: &'g [SiteId],
        key: impl Fn(&CallSite<'p>) -> &'p str,
        name: &str,
    ) -> &'g [SiteId] {
        let lo = ids.partition_point(|&i| key(&self.sites[i]) < name);
        let len = ids[lo..].partition_point(|&i| key(&self.sites[i]) == name);
        &ids[lo..lo + len]
    }

    /// Functions never called by user code — the system's entry points
    /// (request handlers, admin operations, test hooks).
    pub fn entry_functions(&self) -> Vec<&'p str> {
        self.fn_names
            .iter()
            .copied()
            .filter(|&n| !self.callers_of(n).iter().any(|&i| !self.sites[i].builtin))
            .collect()
    }

    /// All function names, in declaration order.
    pub fn functions(&self) -> &[&'p str] {
        &self.fn_names
    }
}

/// Site ids sorted by `(key, id)`.
fn sorted_ids<'p>(sites: &[CallSite<'p>], key: impl Fn(&CallSite<'p>) -> &'p str) -> Vec<SiteId> {
    let mut ids: Vec<SiteId> = (0..sites.len()).collect();
    ids.sort_unstable_by(|&a, &b| key(&sites[a]).cmp(key(&sites[b])).then(a.cmp(&b)));
    ids
}

fn collect_sites<'p>(
    f: &'p FnDecl,
    stmts: &'p [Stmt],
    locks: &mut Vec<&'p str>,
    sites: &mut Vec<CallSite<'p>>,
) {
    for s in stmts {
        // Calls in directly-held expressions.
        for e in lisa_lang::ast::stmt_exprs(s) {
            lisa_lang::ast::visit_exprs(e, &mut |sub| {
                if let ExprKind::Call(name, args) = &sub.kind {
                    sites.push(CallSite {
                        caller: &f.name,
                        callee: name,
                        stmt: s.id,
                        span: sub.span,
                        args,
                        builtin: builtin_signature(name).is_some(),
                        sync_locks: locks.to_vec(),
                    });
                }
            });
        }
        match &s.kind {
            StmtKind::If { then_body, else_body, .. } => {
                collect_sites(f, then_body, locks, sites);
                collect_sites(f, else_body, locks, sites);
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                collect_sites(f, body, locks, sites)
            }
            StmtKind::Sync { lock, body } => {
                locks.push(lock);
                collect_sites(f, body, locks, sites);
                locks.pop();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> Program {
        Program::parse_single(
            "t",
            "struct S { v: int }\n\
             fn target(s: S) {}\n\
             fn helper(x: S) { target(x); }\n\
             fn entry_a(s: S) { helper(s); }\n\
             fn entry_b(s: S) { if (s != null) { target(s); } }\n\
             fn serializer() { sync (tree) { blocking_io(\"w\"); } }",
        )
        .expect("program")
    }

    #[test]
    fn finds_all_call_sites() {
        let p = program();
        let g = CallGraph::build(&p);
        assert_eq!(g.callers_of("target").len(), 2);
        assert_eq!(g.callers_of("helper").len(), 1);
        assert_eq!(g.sites_in("entry_a").len(), 1);
    }

    #[test]
    fn entry_functions_have_no_callers() {
        let p = program();
        let g = CallGraph::build(&p);
        let mut entries = g.entry_functions();
        entries.sort();
        assert_eq!(entries, vec!["entry_a", "entry_b", "serializer"]);
    }

    #[test]
    fn arg_paths_are_recorded() {
        let p = program();
        let g = CallGraph::build(&p);
        let site = &g.sites[g.callers_of("helper")[0]];
        assert_eq!(site.arg_path(0).as_deref(), Some("s"));
        assert_eq!(site.arg_path(1), None);
    }

    #[test]
    fn builtin_sites_flagged_with_sync_locks() {
        let p = program();
        let g = CallGraph::build(&p);
        let io_sites: Vec<&CallSite> =
            g.sites.iter().filter(|s| s.callee == "blocking_io").collect();
        assert_eq!(io_sites.len(), 1);
        assert!(io_sites[0].builtin);
        assert_eq!(io_sites[0].sync_locks, vec!["tree"]);
    }

    #[test]
    fn position_lists_agree_with_a_scan() {
        let p = program();
        let g = CallGraph::build(&p);
        let names = g.functions().iter().copied().chain(["blocking_io", "missing"]);
        for name in names {
            let scan = |key: for<'a> fn(&'a CallSite<'_>) -> &'a str| -> Vec<SiteId> {
                (0..g.sites.len()).filter(|&i| key(&g.sites[i]) == name).collect()
            };
            assert_eq!(g.callers_of(name), scan(|s| s.callee).as_slice(), "{name}");
            assert_eq!(g.sites_in(name), scan(|s| s.caller).as_slice(), "{name}");
        }
    }

    #[test]
    fn nested_call_arguments_found() {
        let p = Program::parse_single(
            "t",
            "fn g(x: int) -> int { return x; }\n\
             fn f() -> int { return g(g(1)); }",
        )
        .expect("program");
        let g = CallGraph::build(&p);
        assert_eq!(g.callers_of("g").len(), 2);
    }
}
