//! Incremental solver sessions: assumption-based solving with clause
//! reuse across the near-identical queries of one gate rule.
//!
//! The gate asks the same shape of question over and over: one rule
//! contributes a fixed checker `C`, and every (run, hit) pair contributes
//! a path condition π, each query being `SAT(π ∧ ¬C)`. The stateless
//! [`crate::violates_budgeted`] re-encodes and re-refutes `¬C` from
//! scratch every time. A [`SolverSession`] instead keeps one persistent
//! clause database per rule: the Tseitin CNF of the canonicalized `¬C`
//! is added once, each query's π is encoded into the same database and
//! *activated* by assuming its Tseitin root literal
//! ([`crate::sat::SatSolver::solve_under_assumptions`]), and everything
//! the SAT core learns — 1UIP resolvents and theory blocking clauses —
//! is retained for the rule's remaining queries.
//!
//! **The determinism argument.** Gate verdicts (including witness
//! models, which are rendered into reports) must be byte-identical to
//! the fresh-solver answers at every worker width, cache on or off. The
//! session guarantees this by construction, not by luck:
//!
//! - The incremental path only ever *answers* `Verified` (unsat).
//!   Unsatisfiability is search-order independent — retained clauses can
//!   change how fast the refutation is found, never whether it exists —
//!   and `Verified` carries no payload, so the answer is bit-for-bit the
//!   one a fresh solver returns.
//! - A satisfiable query needs a witness model, and models *are* search-
//!   order dependent. So when the session's SAT core finds the query
//!   satisfiable it discards that assignment and delegates to the exact
//!   stateless path ([`crate::solver::check_violation`] on the query's
//!   canonical form), which reproduces the canonical witness the
//!   non-session gate would have produced.
//! - Budgeted queries (`max_conflicts = Some(..)`, the degraded-mode
//!   path) are *isolated* on a throwaway fresh solver: an `Unknown` is
//!   only meaningful relative to a fixed starting state, and isolation
//!   both reproduces the fresh answer exactly and guarantees an
//!   exhausted query can never poison the persistent database — the
//!   session's learned clauses only ever come from completed,
//!   budget-free searches. Session-level budget accounting still spans
//!   the whole session (see [`SessionStats`]).
//!
//! Theory lemmas are safe to retain because a blocking clause from
//! [`crate::theory::check`] states a fact about the theory atoms
//! themselves, independent of which query cited them; CDCL learned
//! clauses are safe because assumptions enter the search as decisions
//! and are never resolved away, so every resolvent is implied by the
//! clause database alone (see `solve_under_assumptions`).
//!
//! **One canonical form per query.** Opening a session normalizes `¬C`
//! once. Each query's π is taken to NNF once; the incremental path
//! simplifies that, and the joint `π ∧ ¬C` form is built from it and the
//! session's `¬C` only when a fresh solve needs it.
//!
//! **Laziness.** Opening a session encodes nothing. The CNF of `¬C` is
//! built by the first query that reaches the persistent solver, so a
//! rule whose every query is budget-isolated never pays for the
//! encoding. The `smt.session.opened` counter counts sessions whose
//! solver was built. (A gate rule answered from the rule-report memo
//! opens no session at all.)

use std::sync::Mutex;

use crate::cnf::Cnf;
use crate::nnf::{simplify, to_nnf, to_nnf_negated, violation_query};
use crate::sat::{SatOutcome, SatSolver};
use crate::solver::{check_violation, ViolationOutcome};
use crate::term::Term;
use crate::theory::{self, TheoryLit, TheoryResult};

/// Reuse counters for one session, surfaced as `smt.session.*`
/// telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Queries answered through this session (all paths).
    pub queries: u64,
    /// Queries answered by the persistent incremental solver (always
    /// `Verified`; the reuse fast path).
    pub incremental: u64,
    /// Queries the incremental solver found satisfiable (or failed to
    /// converge on), delegated to a fresh solver for the canonical
    /// witness.
    pub fallback_fresh: u64,
    /// Budgeted queries isolated on a throwaway solver so an exhausted
    /// budget cannot poison the session.
    pub budget_isolated: u64,
    /// Learned clauses currently retained in the persistent database.
    pub learned_retained: u64,
    /// Sum over queries of the learned clauses already present when the
    /// query started — the clause-reuse opportunity actually realized.
    pub learned_reused: u64,
    /// SAT conflicts spent inside the persistent solver, cumulative
    /// across the session (the session-spanning budget ledger).
    pub conflicts: u64,
}

/// Everything behind the session lock.
#[derive(Debug, Default)]
struct Inner {
    /// The persistent solver, built by the first query that needs it.
    core: Option<Core>,
    stats: SessionStats,
}

/// The persistent encoding and the persistent SAT core.
#[derive(Debug)]
struct Core {
    cnf: Cnf,
    sat: SatSolver,
    /// `cnf.clauses` below this index are already in `sat`.
    synced: usize,
    /// `preprocess(¬checker)` folded to `False`: every query is
    /// `Verified` without touching the solver.
    checker_valid: bool,
}

impl Core {
    /// The Tseitin CNF of the canonicalized `¬checker` as the base
    /// clause database, shared by every later query. `negated` is the
    /// session's NNF of `¬checker`.
    fn new(negated: &Term) -> Core {
        let mut cnf = Cnf::new();
        let checker_valid = cnf.assert_term(&simplify(negated)).is_err();
        let mut sat = SatSolver::new(cnf.num_vars());
        let mut synced = 0;
        while synced < cnf.clauses.len() {
            if !sat.add_clause(cnf.clauses[synced].clone()) {
                // ¬checker is propositionally unsat on its own: the
                // sticky solver-level unsat makes every query Verified,
                // exactly as the fresh path would conclude.
                break;
            }
            synced += 1;
        }
        Core { cnf, sat, synced, checker_valid }
    }
}

/// A persistent solver for one rule's violation queries: `¬checker` is
/// encoded once, each π is activated by assumption, and learned clauses
/// carry across queries. Queries take `&self` and lock an internal
/// mutex, so a session can be shared by reference, across threads too;
/// answers are query-pure (identical to a fresh solver's), so query
/// order never shows in any verdict.
#[derive(Debug)]
pub struct SolverSession {
    /// The NNF of `¬checker`, normalized once for every query.
    negated: Term,
    inner: Mutex<Inner>,
}

impl SolverSession {
    /// Open a session for `checker`. Only `¬checker`'s NNF is built now;
    /// the first query that reaches the persistent solver builds the
    /// Tseitin CNF of the canonicalized `¬checker` as the base clause
    /// database.
    pub fn new(checker: &Term) -> SolverSession {
        SolverSession { negated: to_nnf_negated(checker), inner: Mutex::new(Inner::default()) }
    }

    /// The session's violation query: is `π ∧ ¬checker` satisfiable?
    /// Same contract as [`crate::violates_budgeted`] — and, by the
    /// determinism argument in the module docs, the same answer, byte
    /// for byte.
    pub fn violates_budgeted(
        &self,
        pi: &Term,
        max_conflicts: Option<u64>,
    ) -> ViolationOutcome {
        let pi_nnf = to_nnf(pi);
        // The joint canonical form, built only if a fresh solve needs it.
        let fresh = |budget| check_violation(&violation_query(&pi_nnf, &self.negated), budget);
        if let Some(budget) = max_conflicts {
            // Budget isolation: solve on a throwaway fresh solver so an
            // exhausted (`Unknown`) query neither inherits conflicts
            // already spent in the session nor leaves partial search
            // state behind for later queries.
            {
                let mut inner = self.lock();
                inner.stats.queries += 1;
                inner.stats.budget_isolated += 1;
            }
            return fresh(Some(budget));
        }
        let decided = {
            let mut guard = self.lock();
            let Inner { core, stats } = &mut *guard;
            let core = core.get_or_insert_with(|| Core::new(&self.negated));
            stats.queries += 1;
            stats.learned_reused += core.sat.stats.learned_clauses;
            let decided = incremental_verified(core, stats, &pi_nnf);
            if decided {
                stats.incremental += 1;
            } else {
                stats.fallback_fresh += 1;
            }
            stats.learned_retained = core.sat.stats.learned_clauses;
            decided
        };
        if decided {
            ViolationOutcome::Verified
        } else {
            // Satisfiable (or, theoretically, non-convergent): re-derive
            // on the stateless path so the witness model is the
            // canonical fresh-solver one.
            fresh(None)
        }
    }

    /// Unbudgeted variant, mirroring [`crate::violates`]' relationship
    /// to [`crate::violates_budgeted`].
    pub fn violates(&self, pi: &Term) -> ViolationOutcome {
        self.violates_budgeted(pi, None)
    }

    /// A snapshot of the session's reuse counters.
    pub fn stats(&self) -> SessionStats {
        self.lock().stats
    }

    /// Publish the session's counters to telemetry (no-op unless metrics
    /// collection is on). Call once, when the session's rule is done;
    /// totals accumulate across sessions under the `smt.session.*`
    /// namespace, and `smt.session.opened` counts the sessions whose
    /// persistent solver was actually built.
    pub fn publish_metrics(&self) {
        if !lisa_telemetry::metrics_enabled() {
            return;
        }
        let (stats, built) = {
            let inner = self.lock();
            (inner.stats, inner.core.is_some())
        };
        if built {
            lisa_telemetry::counter_add("smt.session.opened", 1);
        }
        for (name, value) in [
            ("smt.session.queries", stats.queries),
            ("smt.session.incremental", stats.incremental),
            ("smt.session.fallback_fresh", stats.fallback_fresh),
            ("smt.session.budget_isolated", stats.budget_isolated),
            ("smt.session.learned_retained", stats.learned_retained),
            ("smt.session.learned_reused", stats.learned_reused),
            ("smt.session.conflicts", stats.conflicts),
        ] {
            if value > 0 {
                lisa_telemetry::counter_add(name, value);
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic can only poison the lock mid-solve; the session state
        // is still internally consistent (the SAT core integrates
        // clauses at level 0), so keep serving.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Upper bound on lazy theory-refinement rounds per query, mirroring
/// [`crate::Solver`]'s safety valve.
const MAX_ROUNDS: u64 = 100_000;

/// Run the incremental DPLL(T) loop for π (given in NNF) against the
/// persistent database. Returns `true` when the query is proved unsat
/// (`Verified`); `false` means "delegate to the fresh solver"
/// (satisfiable, or the refinement loop did not converge).
fn incremental_verified(core: &mut Core, stats: &mut SessionStats, pi_nnf: &Term) -> bool {
    if core.checker_valid {
        // ¬checker canonicalized to False: π ∧ False is unsat for every
        // π, exactly as the fresh path's joint preprocessing concludes.
        return true;
    }
    let pre = simplify(pi_nnf);
    let clauses_before = core.cnf.clauses.len();
    let assumptions: Vec<_> = match &pre {
        // π canonicalized to False: unsat regardless of the checker.
        Term::False => return true,
        // π canonicalized to True: the query is just SAT(¬checker).
        Term::True => Vec::new(),
        term => vec![core.cnf.encode_term(term)],
    };
    // Feed the newly emitted (definitional) clauses to the SAT core.
    while core.synced < core.cnf.clauses.len() {
        let clause = core.cnf.clauses[core.synced].clone();
        core.synced += 1;
        if !core.sat.add_clause(clause) {
            return true;
        }
    }

    let telemetry = lisa_telemetry::metrics_enabled() || lisa_telemetry::spans_enabled();
    let span = telemetry.then(|| lisa_telemetry::span("smt.check"));
    let started = std::time::Instant::now();
    let before = core.sat.stats;
    let verified = solve_loop(core, &assumptions);
    let spent = core.sat.stats.conflicts - before.conflicts;
    stats.conflicts += spent;
    if let Some(mut span) = span {
        // Mirror the per-query counters the stateless path publishes so
        // `smt.*` telemetry stays live whichever path answered.
        let after = core.sat.stats;
        if verified {
            lisa_telemetry::counter_add("smt.queries", 1);
            lisa_telemetry::counter_add("smt.outcome.unsat", 1);
            lisa_telemetry::histogram_record(
                "smt.query_us",
                started.elapsed().as_micros() as u64,
            );
        }
        lisa_telemetry::counter_add(
            "smt.clauses",
            (core.cnf.clauses.len() - clauses_before) as u64,
        );
        lisa_telemetry::counter_add("smt.conflicts", after.conflicts - before.conflicts);
        lisa_telemetry::counter_add("smt.decisions", after.decisions - before.decisions);
        lisa_telemetry::counter_add(
            "smt.propagations",
            after.propagations - before.propagations,
        );
        lisa_telemetry::counter_add("smt.restarts", after.restarts - before.restarts);
        span.set_detail(if verified { "unsat" } else { "session-fallback" });
        span.arg("conflicts", after.conflicts - before.conflicts);
        span.arg("decisions", after.decisions - before.decisions);
        span.arg("learned", after.learned_clauses - before.learned_clauses);
    }
    verified
}

/// The lazy SAT ↔ theory refinement loop over the persistent core.
fn solve_loop(core: &mut Core, assumptions: &[i32]) -> bool {
    for _ in 0..MAX_ROUNDS {
        match core.sat.solve_under_assumptions(assumptions) {
            // No budget is set on the persistent core, but stay total.
            SatOutcome::Unknown => return false,
            SatOutcome::Unsat => return true,
            SatOutcome::Sat(assignment) => {
                // The assignment covers every atom the session has ever
                // encoded, including atoms from earlier queries. Stale
                // atoms are harmless for completeness: any theory model
                // of the live atoms evaluates them to *some* truth
                // value, so a blocking clause citing one just steers the
                // search, never excludes a real model of the live query.
                let mut lits: Vec<TheoryLit> = Vec::new();
                let mut lit_vars: Vec<usize> = Vec::new();
                for (v, atom) in core.cnf.atom_of.iter().enumerate() {
                    if let Some(atom) = atom {
                        lits.push((atom.clone(), assignment[v]));
                        lit_vars.push(v);
                    }
                }
                match theory::check(&lits) {
                    // Theory-consistent SAT: a witness exists, so the
                    // caller must re-derive it on the fresh path.
                    TheoryResult::Consistent(_) => return false,
                    TheoryResult::Conflict(indices) => {
                        // A theory lemma over the atoms themselves —
                        // valid in every query, so it joins the
                        // persistent database unguarded.
                        let clause: Vec<i32> = indices
                            .iter()
                            .map(|&i| {
                                let v = lit_vars[i] as i32;
                                if lits[i].1 {
                                    -v
                                } else {
                                    v
                                }
                            })
                            .collect();
                        if clause.is_empty() || !core.sat.add_clause(clause) {
                            return true;
                        }
                    }
                }
            }
        }
    }
    // Refinement did not converge: let the fresh path produce the same
    // honest Unknown the stateless solver would.
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_cond;
    use crate::solver::violates_budgeted;
    use crate::term::CmpOp;

    fn t(s: &str) -> Term {
        parse_cond(s).expect("parse")
    }

    fn zk_checker() -> Term {
        t("s != null && s.isClosing == false && s.ttl > 0")
    }

    // Compare outcomes by their canonical rendering: `Model`'s `Display`
    // sorts keys, whereas Debug exposes HashMap iteration order, which
    // differs even between two *fresh* solves of the same query.
    fn same_outcome(a: &ViolationOutcome, b: &ViolationOutcome) -> bool {
        match (a, b) {
            (ViolationOutcome::Violated(ma), ViolationOutcome::Violated(mb)) => {
                format!("{ma}") == format!("{mb}") && ma.validated == mb.validated
            }
            (ViolationOutcome::Verified, ViolationOutcome::Verified) => true,
            (
                ViolationOutcome::Unknown { reason: ra },
                ViolationOutcome::Unknown { reason: rb },
            ) => ra == rb,
            _ => false,
        }
    }

    #[test]
    fn session_answers_match_fresh_solver_exactly() {
        let checker = zk_checker();
        let session = SolverSession::new(&checker);
        for pi in [
            t("s != null && s.isClosing == false"), // violated: missing ttl
            checker.clone(),                        // verified
            t("s == null"),                         // violated
            t("s != null && s.isClosing == false && s.ttl > 5"), // verified
        ] {
            let fresh = violates_budgeted(&pi, &checker, None);
            let via_session = session.violates_budgeted(&pi, None);
            assert!(
                same_outcome(&fresh, &via_session),
                "session diverged on {pi}: fresh {fresh:?} vs session {via_session:?}"
            );
        }
        let stats = session.stats();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.incremental, 2, "both Verified queries reuse the core");
        assert_eq!(stats.fallback_fresh, 2, "both Violated queries re-derive fresh");
    }

    #[test]
    fn clause_reuse_accumulates_across_queries() {
        // Checkers whose negation needs genuine search to refute: a
        // pairwise-distinct clique in too small a range is unsat, so the
        // checker is valid and every query verifies — after the first,
        // from retained clauses.
        let clique = t(
            "x >= 0 && x <= 1 && y >= 0 && y <= 1 && z >= 0 && z <= 1 \
             && x != y && y != z && x != z",
        );
        // Four ints pairwise distinct in [0,2] against 32 path conditions:
        // the batch `lisa`'s `tests/speedups.rs` times fresh vs session.
        let in_range = |v: &str| {
            Term::and([Term::int_cmp_c(v, CmpOp::Ge, 0), Term::int_cmp_c(v, CmpOp::Le, 2)])
        };
        let vars = ["c0", "c1", "c2", "c3"];
        let mut parts: Vec<Term> = vars.iter().map(|v| in_range(v)).collect();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                parts.push(Term::int_cmp_v(vars[i], CmpOp::Ne, vars[j]));
            }
        }
        for (checker_negation, queries) in [(clique, 3), (Term::and(parts), 32)] {
            let session = SolverSession::new(&checker_negation.not());
            for i in 0..queries {
                let pi = Term::int_cmp_c(format!("a{i}"), CmpOp::Gt, 0);
                let outcome = session.violates_budgeted(&pi, None);
                assert!(matches!(outcome, ViolationOutcome::Verified), "{outcome:?}");
            }
            let stats = session.stats();
            assert_eq!(stats.queries, queries);
            assert_eq!(stats.incremental, queries, "every query must reuse the session core");
            assert!(stats.learned_retained > 0, "refutation must learn clauses");
            assert!(
                stats.learned_reused > 0,
                "queries after the first must start with retained clauses"
            );
        }
    }

    #[test]
    fn budgeted_queries_are_isolated_and_do_not_poison_the_session() {
        let clique = t(
            "x >= 0 && x <= 1 && y >= 0 && y <= 1 && z >= 0 && z <= 1 \
             && x != y && y != z && x != z",
        );
        let checker = clique.clone().not();
        let session = SolverSession::new(&checker);
        // Zero budget on a query that needs search: Unknown, isolated.
        let starved = session.violates_budgeted(&t("w > 0"), Some(0));
        assert!(matches!(starved, ViolationOutcome::Unknown { .. }), "{starved:?}");
        // The same query unbudgeted still gets the fresh-identical answer.
        let after = session.violates_budgeted(&t("w > 0"), None);
        let fresh = violates_budgeted(&t("w > 0"), &checker, None);
        assert!(same_outcome(&after, &fresh), "{after:?} vs {fresh:?}");
        assert_eq!(session.stats().budget_isolated, 1);
    }

    #[test]
    fn session_encodes_nothing_until_a_query_reaches_its_solver() {
        let session = SolverSession::new(&zk_checker());
        assert!(session.lock().core.is_none(), "opening a session encodes nothing");
        // A budgeted query is isolated on a fresh solver: still nothing.
        session.violates_budgeted(&t("s == null"), Some(100));
        assert!(session.lock().core.is_none());
        session.violates_budgeted(&zk_checker(), None);
        assert!(session.lock().core.is_some(), "the first unbudgeted query builds it");
        let stats = session.stats();
        assert_eq!((stats.queries, stats.budget_isolated, stats.incremental), (2, 1, 1));
    }

    #[test]
    fn trivially_valid_checker_short_circuits() {
        let session = SolverSession::new(&t("x > 0 || x <= 0"));
        let outcome = session.violates_budgeted(&t("p == true"), None);
        assert!(matches!(outcome, ViolationOutcome::Verified));
        let fresh = violates_budgeted(&t("p == true"), &t("x > 0 || x <= 0"), None);
        assert!(same_outcome(&outcome, &fresh));
    }

    #[test]
    fn constant_path_conditions_match_fresh() {
        let checker = zk_checker();
        let session = SolverSession::new(&checker);
        for pi in [t("x > 0 && x <= 0"), t("x > 0 || x <= 0")] {
            let fresh = violates_budgeted(&pi, &checker, None);
            let via_session = session.violates_budgeted(&pi, None);
            assert!(same_outcome(&fresh, &via_session), "{pi}");
        }
    }
}
