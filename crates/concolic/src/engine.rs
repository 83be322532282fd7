//! The concolic tracer.
//!
//! Runs tests *concretely* through the SIR interpreter while recording a
//! symbolic path condition along the executed path — the concolic recipe
//! of §3.2. At every branch the guard is lifted to a term over name paths
//! ([`lisa_lang::symbolic::guard_term`]); at every assignment, stale
//! constraints over the written path are invalidated; when control
//! reaches a *target statement*, the constraints of all live frames are
//! renamed into rule vocabulary through the chain's [`AliasMap`] and
//! snapshotted as a [`TargetHit`].
//!
//! Branch-relevance pruning (§3.2's "follows only branches whose guards
//! involve variables relevant to the semantic") is a recording policy:
//! under [`Policy::RelevantOnly`] irrelevant guards are never recorded or
//! solved, under [`Policy::RecordAll`] everything is kept (the unpruned
//! baseline measured in experiment E8).

use lisa_analysis::{AliasMap, TargetSpec};
use lisa_lang::interp::{AssignEvent, BranchEvent, BuiltinEvent, CallEvent, Tracer};
use lisa_lang::symbolic::guard_term;
use lisa_lang::{Span, StmtId};
use lisa_smt::term::{CmpOp, Term};

/// Recording policy for branch constraints.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Record every branch (unpruned baseline).
    RecordAll,
    /// Record only branches whose guard mentions a rule-relevant variable.
    RelevantOnly,
}

/// One recorded (and still valid) branch constraint.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Function the guard executed in.
    pub function: String,
    /// Guard term over raw name paths (polarity already applied).
    pub term: Term,
    pub stmt: StmtId,
    pub span: Span,
}

/// A dynamic arrival at the target statement.
#[derive(Debug, Clone)]
pub struct TargetHit {
    /// Function containing the target call site.
    pub caller: String,
    /// Target callee (function or builtin name).
    pub callee: String,
    pub span: Span,
    /// Path condition over rule vocabulary (conjunction; includes the
    /// synthetic `$locks.held` count).
    pub pi: Term,
    /// Dynamic call chain, outermost first (the harness entry is first).
    pub chain: Vec<String>,
    /// Number of locks held at the hit.
    pub locks_held: usize,
    /// Raw constraints (before renaming) that were live at the hit, for
    /// diagnostics.
    pub raw: Vec<Constraint>,
}

/// A recorded constraint while its frame is live: the function name
/// borrows from the program and becomes an owned [`Constraint`] only
/// when a hit snapshots it.
#[derive(Debug)]
struct Live<'p> {
    function: &'p str,
    term: Term,
    stmt: StmtId,
    span: Span,
}

#[derive(Debug)]
struct Frame<'p> {
    function: &'p str,
    constraints: Vec<Live<'p>>,
}

/// Counters for pruning/efficiency experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    pub branches_seen: u64,
    pub branches_recorded: u64,
    pub constraints_invalidated: u64,
    pub target_hits: u64,
}

/// The tracer. Create one per (rule, test execution); it borrows the
/// rule's target and alias map, which every test of the batch shares,
/// and the function names of the program it traces.
pub struct ConcolicTracer<'a> {
    target: &'a TargetSpec,
    aliases: &'a AliasMap<'a>,
    policy: Policy,
    frames: Vec<Frame<'a>>,
    /// Depth of the `sync` nesting at the current point.
    locks_held: usize,
    pub hits: Vec<TargetHit>,
    pub stats: EngineStats,
}

impl<'a> ConcolicTracer<'a> {
    pub fn new(
        target: &'a TargetSpec,
        aliases: &'a AliasMap<'a>,
        policy: Policy,
    ) -> ConcolicTracer<'a> {
        ConcolicTracer {
            target,
            aliases,
            policy,
            frames: {
                // Room for the harness frame and a typical call depth.
                let mut frames = Vec::with_capacity(8);
                frames.push(Frame { function: "<harness>", constraints: Vec::new() });
                frames
            },
            locks_held: 0,
            hits: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    fn current_frame(&mut self) -> &mut Frame<'a> {
        self.frames.last_mut().expect("harness frame always present")
    }

    /// Rename the live constraints into rule vocabulary and conjoin.
    fn snapshot_pi(&self) -> (Term, Vec<Constraint>) {
        let mut conjuncts = Vec::new();
        let mut raw = Vec::new();
        for frame in &self.frames {
            for c in &frame.constraints {
                let renamed = rename_term(&c.term, c.function, self.aliases);
                if let Some(t) = renamed {
                    conjuncts.push(t);
                    raw.push(Constraint {
                        function: c.function.to_string(),
                        term: c.term.clone(),
                        stmt: c.stmt,
                        span: c.span,
                    });
                }
            }
        }
        conjuncts.push(Term::int_cmp_c("$locks.held", CmpOp::Eq, self.locks_held as i64));
        (Term::and(conjuncts), raw)
    }

    fn record_hit(&mut self, caller: &str, callee: &str, span: Span) {
        let (pi, raw) = self.snapshot_pi();
        let chain: Vec<String> = self.frames.iter().map(|f| f.function.to_string()).collect();
        self.stats.target_hits += 1;
        self.hits.push(TargetHit {
            caller: caller.to_string(),
            callee: callee.to_string(),
            span,
            pi,
            chain,
            locks_held: self.locks_held,
            raw,
        });
    }
}

/// Rename every non-opaque variable of `term` (observed in `function`)
/// through the alias map. Returns `None` when nothing in the term is
/// rule-relevant; atoms over irrelevant variables inside a relevant term
/// are *dropped from conjunctions* and force-drop disjunctions (we keep
/// only constraints we can fully express in rule vocabulary — partial
/// disjunctions would weaken or strengthen π unsoundly).
fn rename_term(term: &Term, function: &str, aliases: &AliasMap) -> Option<Term> {
    if !is_relevant(term, function, aliases) {
        return None;
    }
    // Exact translation needs every variable to rename, so none may be
    // opaque.
    if !term.any_var(&mut |v| is_opaque(v) || !aliases.is_relevant(function, v)) {
        return Some(term.rename_vars(&|v| {
            aliases.rename(function, v).unwrap_or_else(|| v.to_string())
        }));
    }
    // Mixed guard: keep only if it is a conjunction where relevant
    // conjuncts fully rename (sound weakening of π: dropping conjuncts
    // only removes information the rule does not speak about).
    if let Term::And(parts) = term {
        let kept: Vec<Term> = parts
            .iter()
            .filter_map(|p| rename_term(p, function, aliases))
            .collect();
        if kept.is_empty() {
            return None;
        }
        return Some(Term::and(kept));
    }
    None
}

fn is_opaque(var: &str) -> bool {
    var.starts_with("$opaque")
}

/// Does `term` (observed in `function`) mention a rule-relevant path?
fn is_relevant(term: &Term, function: &str, aliases: &AliasMap) -> bool {
    term.any_var(&mut |v| !is_opaque(v) && aliases.is_relevant(function, v))
}

/// Does `term` mention `path` or a path below it (`path.f`, ...)?
fn mentions_path(term: &Term, path: &str) -> bool {
    term.any_var(&mut |v| {
        !is_opaque(v)
            && v.strip_prefix(path).is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
    })
}

impl<'a> Tracer<'a> for ConcolicTracer<'a> {
    fn on_branch(&mut self, ev: &BranchEvent<'a>) {
        self.stats.branches_seen += 1;
        let base = guard_term(ev.guard);
        // A guard and its negation mention the same variables, so the
        // negation is built only for a guard that is kept.
        let record = match self.policy {
            Policy::RecordAll => true,
            Policy::RelevantOnly => is_relevant(&base, ev.function, self.aliases),
        };
        if record {
            let term = if ev.taken { base } else { base.not() };
            self.stats.branches_recorded += 1;
            let c = Live { function: ev.function, term, stmt: ev.stmt, span: ev.span };
            self.current_frame().constraints.push(c);
        }
    }

    fn on_call(&mut self, ev: &CallEvent<'_, 'a>) {
        // Target check happens at the call boundary, before the callee
        // body executes — the state the rule constrains.
        if matches!(self.target, TargetSpec::Call { callee } if callee == ev.callee) {
            self.record_hit(ev.caller, ev.callee, ev.span);
        }
        self.frames.push(Frame { function: ev.callee, constraints: Vec::new() });
    }

    fn on_return(&mut self, _callee: &str, _depth: usize) {
        // Merge the returning frame's constraints into the caller: checks
        // performed inside a completed callee still guard the path.
        if self.frames.len() > 1 {
            let done = self.frames.pop().expect("len checked");
            self.current_frame().constraints.extend(done.constraints);
        }
    }

    fn on_assign(&mut self, ev: &AssignEvent<'_>) {
        let Some(path) = ev.path else { return };
        let mut dropped = 0u64;
        for frame in &mut self.frames {
            frame.constraints.retain(|c| {
                if c.function != ev.function {
                    return true;
                }
                let stale = mentions_path(&c.term, path);
                if stale {
                    dropped += 1;
                }
                !stale
            });
        }
        self.stats.constraints_invalidated += dropped;
    }

    fn on_sync_enter(&mut self, _lock: &str, _function: &str, _span: Span, _depth: usize) {
        self.locks_held += 1;
    }

    fn on_sync_exit(&mut self, _lock: &str, _depth: usize) {
        self.locks_held = self.locks_held.saturating_sub(1);
    }

    fn on_builtin(&mut self, ev: &BuiltinEvent<'_>) {
        let matches = match self.target {
            TargetSpec::Builtin { name } => *name == ev.name,
            TargetSpec::BuiltinInSync { name } => *name == ev.name && !ev.locks.is_empty(),
            TargetSpec::BuiltinInCaller { name, caller } => {
                *name == ev.name && *caller == ev.function
            }
            TargetSpec::Call { .. } => false,
        };
        if matches {
            self.record_hit(ev.function, ev.name, ev.span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_analysis::{chain_aliases, execution_tree, CallGraph, TreeLimits};
    use lisa_lang::{Interp, Program, Value};

    const ZK: &str = "struct Session { id: int, closing: bool, ttl: int }\n\
         global sessions: map<int, Session>;\n\
         fn create_ephemeral(s: Session, path: str) { log(path); }\n\
         fn prep_create(sid: int, path: str) {\n\
             let session: Session = sessions.get(sid);\n\
             if (session == null) { return; }\n\
             create_ephemeral(session, path);\n\
         }\n\
         fn touch_then_create(sid: int, path: str) {\n\
             let s: Session = sessions.get(sid);\n\
             if (s == null || s.closing) { return; }\n\
             if (s.ttl > 0) { create_ephemeral(s, path); }\n\
         }\n\
         fn setup(sid: int, closing: bool, ttl: int) {\n\
             let s = new Session { id: sid, closing: closing, ttl: ttl };\n\
             sessions.put(sid, s);\n\
         }";

    /// The rule's aliases unioned over both chains to `create_ephemeral`.
    fn union_aliases<'a>(p: &'a Program, roots: &'a [String]) -> AliasMap<'a> {
        let g = CallGraph::build(p);
        let tree = execution_tree(
            &g,
            &TargetSpec::Call { callee: "create_ephemeral".into() },
            TreeLimits::default(),
        );
        let mut out = AliasMap::default();
        for chain in &tree.chains {
            out.merge(&chain_aliases(p, &g, chain, "create_ephemeral", roots));
        }
        let entries: Vec<_> = out.iter().collect();
        assert_eq!(
            entries,
            [
                ("create_ephemeral", "s", "s"),
                ("prep_create", "session", "s"),
                ("touch_then_create", "s", "s"),
            ]
        );
        out
    }

    /// What a finished run recorded.
    struct Traced {
        hits: Vec<TargetHit>,
        stats: EngineStats,
    }

    fn run_test(entry: &str, args: Vec<Value>, policy: Policy) -> Traced {
        let p = Program::parse_single("zk", ZK).expect("p");
        assert!(lisa_lang::check_program(&p).is_empty());
        let roots = ["s".to_string()];
        let aliases = union_aliases(&p, &roots);
        let target = TargetSpec::Call { callee: "create_ephemeral".into() };
        let mut interp = Interp::new(&p);
        // Seed a healthy session 1 and a closing session 2.
        let no_aliases = AliasMap::default();
        let mut t0 = ConcolicTracer::new(&target, &no_aliases, Policy::RecordAll);
        interp
            .call("setup", vec![Value::Int(1), Value::Bool(false), Value::Int(30)], &mut t0)
            .expect("setup");
        interp
            .call("setup", vec![Value::Int(2), Value::Bool(true), Value::Int(0)], &mut t0)
            .expect("setup");
        let mut tracer = ConcolicTracer::new(&target, &aliases, policy);
        interp.call(entry, args, &mut tracer).expect("run");
        Traced { hits: tracer.hits, stats: tracer.stats }
    }

    #[test]
    fn guarded_path_records_full_condition() {
        let tr = run_test(
            "touch_then_create",
            vec![Value::Int(1), Value::Str("/a".into())],
            Policy::RelevantOnly,
        );
        assert_eq!(tr.hits.len(), 1);
        let pi = &tr.hits[0].pi;
        let wanted = lisa_smt::parse_cond("s != null && s.closing == false && s.ttl > 0")
            .expect("cond");
        assert!(lisa_smt::implies(pi, &wanted), "pi too weak: {pi}");
    }

    #[test]
    fn weak_path_misses_the_closing_check() {
        let tr = run_test(
            "prep_create",
            vec![Value::Int(1), Value::Str("/a".into())],
            Policy::RelevantOnly,
        );
        assert_eq!(tr.hits.len(), 1);
        let pi = &tr.hits[0].pi;
        assert!(lisa_smt::implies(pi, &lisa_smt::parse_cond("s != null").expect("c")));
        assert!(
            !lisa_smt::implies(pi, &lisa_smt::parse_cond("s.closing == false").expect("c")),
            "missing check must stay missing: {pi}"
        );
    }

    #[test]
    fn closing_session_never_reaches_target_on_fixed_path() {
        let tr = run_test(
            "touch_then_create",
            vec![Value::Int(2), Value::Str("/a".into())],
            Policy::RelevantOnly,
        );
        assert!(tr.hits.is_empty());
    }

    #[test]
    fn chain_is_dynamic_stack() {
        let tr = run_test(
            "prep_create",
            vec![Value::Int(1), Value::Str("/a".into())],
            Policy::RecordAll,
        );
        assert_eq!(
            tr.hits[0].chain,
            vec!["<harness>".to_string(), "prep_create".to_string()]
        );
    }

    #[test]
    fn pruning_records_fewer_branches() {
        let all = run_test(
            "touch_then_create",
            vec![Value::Int(1), Value::Str("/a".into())],
            Policy::RecordAll,
        );
        let pruned = run_test(
            "touch_then_create",
            vec![Value::Int(1), Value::Str("/a".into())],
            Policy::RelevantOnly,
        );
        assert_eq!(all.stats.branches_seen, pruned.stats.branches_seen);
        assert!(pruned.stats.branches_recorded <= all.stats.branches_recorded);
    }

    #[test]
    fn assignment_invalidates_stale_constraints() {
        let src = "struct S { ttl: int }\n\
             fn target(s: S) {}\n\
             fn f(s: S) {\n\
                 if (s.ttl > 100) { return; }\n\
                 s.ttl = 500;\n\
                 target(s);\n\
             }";
        let p = Program::parse_single("t", src).expect("p");
        let mut interp = Interp::new(&p);
        let mut aliases = AliasMap::default();
        aliases.insert("f", "s", "s");
        aliases.insert("target", "s", "s");
        let mut fields = std::collections::BTreeMap::new();
        fields.insert("ttl".to_string(), Value::Int(5));
        let r = interp.heap.alloc(lisa_lang::HeapObj::Struct { ty: "S".into(), fields });
        let target = TargetSpec::Call { callee: "target".into() };
        let mut tracer = ConcolicTracer::new(&target, &aliases, Policy::RelevantOnly);
        interp.call("f", vec![Value::Ref(r)], &mut tracer).expect("run");
        assert_eq!(tracer.hits.len(), 1);
        let pi = tracer.hits[0].pi.to_string();
        // The ttl<=100 constraint became stale when s.ttl was overwritten.
        assert!(!pi.contains("ttl"), "stale ttl constraint must be dropped: {pi}");
        assert!(tracer.stats.constraints_invalidated >= 1);
    }

    #[test]
    fn builtin_in_sync_hit_carries_lock_count() {
        let src = "fn serialize() { sync (tree) { blocking_io(\"node\"); } }\n\
                   fn free_io() { blocking_io(\"free\"); }";
        let p = Program::parse_single("t", src).expect("p");
        let mut interp = Interp::new(&p);
        let target = TargetSpec::Builtin { name: "blocking_io".into() };
        let aliases = AliasMap::default();
        let mut tracer = ConcolicTracer::new(&target, &aliases, Policy::RecordAll);
        interp.call("serialize", vec![], &mut tracer).expect("run");
        interp.call("free_io", vec![], &mut tracer).expect("run");
        assert_eq!(tracer.hits.len(), 2);
        assert_eq!(tracer.hits[0].locks_held, 1);
        assert_eq!(tracer.hits[1].locks_held, 0);
        assert!(tracer.hits[0].pi.to_string().contains("$locks.held == 1"));
    }

    #[test]
    fn callee_checks_survive_return() {
        let src = "struct S { ok: bool }\n\
             fn target(s: S) {}\n\
             fn validate(v: S) -> bool { if (v == null || !v.ok) { return false; } return true; }\n\
             fn f(s: S) { if (validate(s)) { target(s); } }";
        let p = Program::parse_single("t", src).expect("p");
        let mut interp = Interp::new(&p);
        let mut aliases = AliasMap::default();
        aliases.insert("f", "s", "s");
        aliases.insert("validate", "v", "s");
        aliases.insert("target", "s", "s");
        let mut fields = std::collections::BTreeMap::new();
        fields.insert("ok".to_string(), Value::Bool(true));
        let r = interp.heap.alloc(lisa_lang::HeapObj::Struct { ty: "S".into(), fields });
        let target = TargetSpec::Call { callee: "target".into() };
        let mut tracer = ConcolicTracer::new(&target, &aliases, Policy::RelevantOnly);
        interp.call("f", vec![Value::Ref(r)], &mut tracer).expect("run");
        assert_eq!(tracer.hits.len(), 1);
        let pi = &tracer.hits[0].pi;
        assert!(
            lisa_smt::implies(pi, &lisa_smt::parse_cond("s != null && s.ok").expect("c")),
            "validate()'s checks must be visible after return: {pi}"
        );
    }
}
