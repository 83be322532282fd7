//! The DPLL(T) driver: SAT core + theory solver in a lazy loop, plus the
//! high-level entailment queries LISA uses (implication, equivalence, and
//! the paper's complement-of-the-checker violation test).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cnf::{Cnf, PLit};
use crate::model::{Model, Value};
use crate::nnf::{preprocess, preprocess_violation, to_nnf, to_nnf_negated, violation_query};
use crate::sat::{SatOutcome, SatSolver};
use crate::term::{Atom, Sort, Term};
use crate::theory::{self, TheoryLit, TheoryResult};

/// Result of a satisfiability check.
#[derive(Debug)]
pub enum SatResult {
    Sat(Model),
    Unsat,
    /// A resource budget ran out before the search concluded. The query is
    /// neither proved nor refuted; gate layers must degrade gracefully
    /// (e.g. treat the chain as not-covered) rather than pick a side.
    Unknown { reason: String },
}

impl SatResult {
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    pub fn is_unknown(&self) -> bool {
        matches!(self, SatResult::Unknown { .. })
    }

    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Counters from one `check` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    pub theory_rounds: u64,
    pub sat_decisions: u64,
    pub sat_conflicts: u64,
    pub sat_propagations: u64,
    pub sat_restarts: u64,
    pub sat_learned: u64,
    /// Tseitin clause count of the query (0 if preprocessing decided it).
    pub cnf_clauses: u64,
    /// Variable count of the CNF encoding.
    pub cnf_vars: u64,
}

/// The solver. Stateless between `check` calls; construct once and reuse,
/// or use the free functions below.
#[derive(Debug, Default)]
pub struct Solver {
    pub stats: SolverStats,
    /// Upper bound on lazy theory-refinement rounds; a safety valve, far
    /// above anything the LISA workload reaches.
    pub max_rounds: u64,
    /// SAT-core conflict budget for the whole `check` call (`None` =
    /// unbounded). Exhaustion yields [`SatResult::Unknown`].
    pub max_conflicts: Option<u64>,
    /// SAT-core decision budget, same semantics.
    pub max_decisions: Option<u64>,
}

impl Solver {
    pub fn new() -> Self {
        Solver {
            stats: SolverStats::default(),
            max_rounds: 100_000,
            max_conflicts: None,
            max_decisions: None,
        }
    }

    /// A solver with a conflict budget; use for gate calls that must
    /// terminate promptly even on adversarial formulas.
    pub fn with_conflict_budget(max_conflicts: u64) -> Self {
        Solver { max_conflicts: Some(max_conflicts), ..Solver::new() }
    }

    /// Decide satisfiability of `term` modulo the equality + difference
    /// theory.
    ///
    /// Per-query introspection (conflicts, decisions, propagations,
    /// restarts, CNF size, outcome) is published through `lisa-telemetry`
    /// when collection is on; the verdict itself never depends on it.
    pub fn check(&mut self, term: &Term) -> SatResult {
        self.check_canonical(&preprocess(term))
    }

    /// [`Solver::check`] for a term already in canonical form, i.e. one
    /// [`preprocess`] returns (for a violation query,
    /// [`crate::nnf::preprocess_violation`]'s). The same answer, witness
    /// included, as `check` on any term that canonicalizes to `pre`,
    /// without canonicalizing it again.
    pub fn check_canonical(&mut self, pre: &Term) -> SatResult {
        if !lisa_telemetry::metrics_enabled() {
            return self.check_inner(pre);
        }
        let mut span = lisa_telemetry::span("smt.check");
        let result = self.check_inner(pre);
        let (outcome, counter) = match &result {
            SatResult::Sat(_) => ("sat", "smt.outcome.sat"),
            SatResult::Unsat => ("unsat", "smt.outcome.unsat"),
            SatResult::Unknown { .. } => ("unknown", "smt.outcome.unknown"),
        };
        span.set_detail(outcome);
        span.arg("rounds", self.stats.theory_rounds);
        span.arg("conflicts", self.stats.sat_conflicts);
        span.arg("decisions", self.stats.sat_decisions);
        span.arg("propagations", self.stats.sat_propagations);
        span.arg("restarts", self.stats.sat_restarts);
        span.arg("learned", self.stats.sat_learned);
        span.arg("clauses", self.stats.cnf_clauses);
        span.arg("vars", self.stats.cnf_vars);
        // The query's time is the solve, not the bookkeeping below.
        drop(span);
        lisa_telemetry::counter_add("smt.queries", 1);
        lisa_telemetry::counter_add(counter, 1);
        lisa_telemetry::counter_add("smt.conflicts", self.stats.sat_conflicts);
        lisa_telemetry::counter_add("smt.decisions", self.stats.sat_decisions);
        lisa_telemetry::counter_add("smt.propagations", self.stats.sat_propagations);
        lisa_telemetry::counter_add("smt.restarts", self.stats.sat_restarts);
        lisa_telemetry::counter_add("smt.clauses", self.stats.cnf_clauses);
        result
    }

    fn check_inner(&mut self, pre: &Term) -> SatResult {
        self.stats = SolverStats::default();
        match pre {
            Term::True => {
                let mut m = Model::new();
                m.validated = true;
                return SatResult::Sat(m);
            }
            Term::False => return SatResult::Unsat,
            _ => {}
        }

        let mut cnf = Cnf::new();
        if cnf.assert_term(pre).is_err() {
            return SatResult::Unsat;
        }
        self.stats.cnf_clauses = cnf.clauses.len() as u64;
        self.stats.cnf_vars = cnf.num_vars() as u64;
        let mut sat = SatSolver::new(cnf.num_vars());
        sat.max_conflicts = self.max_conflicts;
        sat.max_decisions = self.max_decisions;
        // The clauses move into the SAT core; the atom table stays.
        for clause in std::mem::take(&mut cnf.clauses) {
            if !sat.add_clause(clause) {
                return SatResult::Unsat;
            }
        }
        // The theory atoms with their SAT variables, and the literals of
        // the current round: each round re-reads only the polarities.
        let atoms: Vec<(usize, &Atom)> =
            cnf.atom_of.iter().enumerate().filter_map(|(v, a)| Some((v, (*a)?))).collect();
        let mut lits: Vec<TheoryLit<'_>> = Vec::with_capacity(atoms.len());

        loop {
            self.stats.theory_rounds += 1;
            if self.stats.theory_rounds > self.max_rounds {
                // The lazy loop did not converge within the round budget.
                // Picking a side here would be unsound for the violation
                // check, so report the honest "don't know".
                self.capture_stats(&sat);
                return SatResult::Unknown {
                    reason: format!(
                        "theory refinement did not converge within {} rounds",
                        self.max_rounds
                    ),
                };
            }
            match sat.solve() {
                SatOutcome::Unknown => {
                    self.capture_stats(&sat);
                    return SatResult::Unknown {
                        reason: format!(
                            "sat budget exhausted ({} conflicts, {} decisions)",
                            sat.stats.conflicts, sat.stats.decisions
                        ),
                    };
                }
                SatOutcome::Unsat => {
                    self.capture_stats(&sat);
                    return SatResult::Unsat;
                }
                SatOutcome::Sat(assignment) => {
                    // Extract theory literals from the boolean assignment.
                    lits.clear();
                    lits.extend(atoms.iter().map(|&(v, atom)| (atom, assignment[v])));
                    match theory::check(&lits) {
                        TheoryResult::Consistent(tm) => {
                            self.capture_stats(&sat);
                            let mut model = Model::new();
                            for &(atom, value) in &lits {
                                if let Atom::BoolVar(v) = atom {
                                    model.set(v.as_str(), Value::Bool(value));
                                }
                            }
                            for (k, v) in tm.ints {
                                model.set(k, Value::Int(v));
                            }
                            for (k, v) in tm.refs {
                                model.set(k, Value::Ref(v));
                            }
                            for (k, v) in tm.strs {
                                model.set(k, Value::Str(v));
                            }
                            // Fill sorts for vars never mentioned in any
                            // asserted literal polarity that the theory saw:
                            // the first occurrence decides, in the order
                            // the atoms were numbered (the term's own).
                            for &(_, atom) in &atoms {
                                atom.each_var(&mut |var, sort| {
                                    if model.get(var).is_none() {
                                        model.set(
                                            var,
                                            match sort {
                                                Sort::Bool => Value::Bool(false),
                                                Sort::Int => Value::Int(0),
                                                Sort::Ref => Value::Ref(None),
                                                Sort::Str => Value::Str(String::new()),
                                            },
                                        );
                                    }
                                });
                            }
                            model.validated = model.eval(pre);
                            return SatResult::Sat(model);
                        }
                        TheoryResult::Conflict(indices) => {
                            // Block this theory-inconsistent assignment:
                            // at least one cited literal must flip.
                            let clause: Vec<PLit> = indices
                                .iter()
                                .map(|&i| {
                                    let v = atoms[i].0 as PLit;
                                    if lits[i].1 {
                                        -v
                                    } else {
                                        v
                                    }
                                })
                                .collect();
                            debug_assert!(!clause.is_empty(), "theory conflict cites literals");
                            if clause.is_empty() || !sat.add_clause(clause) {
                                self.capture_stats(&sat);
                                return SatResult::Unsat;
                            }
                        }
                    }
                }
            }
        }
    }

    fn capture_stats(&mut self, sat: &SatSolver) {
        self.stats.sat_decisions = sat.stats.decisions;
        self.stats.sat_conflicts = sat.stats.conflicts;
        self.stats.sat_propagations = sat.stats.propagations;
        self.stats.sat_restarts = sat.stats.restarts;
        self.stats.sat_learned = sat.stats.learned_clauses;
    }
}

/// Is `term` satisfiable?
pub fn is_sat(term: &Term) -> bool {
    Solver::new().check(term).is_sat()
}

/// Is `term` valid (true under every assignment)?
pub fn is_valid(term: &Term) -> bool {
    !is_sat(&term.clone().not())
}

/// Does `premise` entail `conclusion`?
pub fn implies(premise: &Term, conclusion: &Term) -> bool {
    !is_sat(&Term::and([premise.clone(), conclusion.clone().not()]))
}

/// Are the two terms logically equivalent?
pub fn equivalent(a: &Term, b: &Term) -> bool {
    implies(a, b) && implies(b, a)
}

/// The paper's violation test (§3.2): a trace with path condition `pi`
/// violates the checker formula `checker` iff the trace "fulfills the
/// complement of the checker formula" — i.e. `pi ∧ ¬checker` is
/// satisfiable. A condition the trace never constrains is thereby treated
/// as possibly-false (a *missing check*), exactly as the paper requires.
///
/// Returns the witness model when violated (the concrete shape of the
/// missing-check counterexample), `None` when the trace is verified.
pub fn violates(pi: &Term, checker: &Term) -> Option<Model> {
    match violates_budgeted(pi, checker, None) {
        ViolationOutcome::Violated(m) => Some(m),
        _ => None,
    }
}

/// Three-valued outcome of a budgeted violation query.
#[derive(Debug, Clone)]
pub enum ViolationOutcome {
    /// `pi ∧ ¬checker` is satisfiable; the witness model is attached.
    Violated(Model),
    /// `pi ∧ ¬checker` is unsatisfiable: the path provably establishes
    /// the checker.
    Verified,
    /// The solver ran out of budget; the query is undecided.
    Unknown { reason: String },
}

/// Budgeted variant of [`violates`]: same query, but the SAT core gives up
/// after `max_conflicts` conflicts (when `Some`) instead of running to
/// completion. An exhausted budget is reported as
/// [`ViolationOutcome::Unknown`] so the gate can degrade the chain to
/// not-covered rather than inventing a verdict.
pub fn violates_budgeted(
    pi: &Term,
    checker: &Term,
    max_conflicts: Option<u64>,
) -> ViolationOutcome {
    check_violation(&preprocess_violation(pi, checker), max_conflicts)
}

/// [`violates_budgeted`] for a query already in canonical form: `query`
/// is [`preprocess_violation`]`(pi, checker)`, which equals the
/// canonical form of `pi ∧ ¬checker`, so it is solved as it stands on
/// one fresh solver.
fn check_violation(query: &Term, max_conflicts: Option<u64>) -> ViolationOutcome {
    let mut solver = Solver::new();
    solver.max_conflicts = max_conflicts;
    match solver.check_canonical(query) {
        SatResult::Sat(m) => ViolationOutcome::Violated(m),
        SatResult::Unsat => ViolationOutcome::Verified,
        SatResult::Unknown { reason } => ViolationOutcome::Unknown { reason },
    }
}

/// Counters of one [`SolverSession`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Queries answered through the session.
    pub queries: u64,
    /// Always 0: every query runs on a fresh solver. Kept only until
    /// lisabench retires `smt.incremental_ratio`, which reads it
    /// (ROADMAP item 2).
    pub incremental: u64,
}

/// One checker's violation queries: `¬checker` is taken to NNF once,
/// and each path condition π is solved on a fresh solver, exactly as
/// [`violates_budgeted`]`(π, checker, ..)` solves it.
#[derive(Debug)]
pub struct SolverSession {
    /// The NNF of `¬checker`, normalized once for every query.
    negated: Term,
    queries: AtomicU64,
}

impl SolverSession {
    pub fn new(checker: &Term) -> SolverSession {
        SolverSession { negated: to_nnf_negated(checker), queries: AtomicU64::new(0) }
    }

    /// Is `π ∧ ¬checker` satisfiable? The same answer, witness and
    /// `Unknown` reason included, as [`violates_budgeted`].
    pub fn violates_budgeted(&self, pi: &Term, max_conflicts: Option<u64>) -> ViolationOutcome {
        self.queries.fetch_add(1, Ordering::Relaxed);
        check_violation(&violation_query(to_nnf(pi), &self.negated), max_conflicts)
    }

    /// A snapshot of the session's counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats { queries: self.queries.load(Ordering::Relaxed), incremental: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::CmpOp;

    fn zk_checker() -> Term {
        Term::and([
            Term::not_null("s"),
            Term::bool_var("s.isClosing").not(),
            Term::int_cmp_c("s.ttl", CmpOp::Gt, 0),
        ])
    }

    #[test]
    fn sat_simple_conjunction() {
        let t = zk_checker();
        let r = Solver::new().check(&t);
        let m = r.model().expect("sat");
        assert!(m.validated, "model must evaluate the term to true: {m}");
    }

    #[test]
    fn unsat_contradiction() {
        let t = Term::and([
            Term::int_cmp_c("x", CmpOp::Gt, 5),
            Term::int_cmp_c("x", CmpOp::Lt, 3),
        ]);
        assert!(!is_sat(&t));
    }

    #[test]
    fn unsat_needs_theory_across_disjunction() {
        // (x < 0 || x > 10) && x == 5
        let t = Term::and([
            Term::or([Term::int_cmp_c("x", CmpOp::Lt, 0), Term::int_cmp_c("x", CmpOp::Gt, 10)]),
            Term::int_cmp_c("x", CmpOp::Eq, 5),
        ]);
        assert!(!is_sat(&t));
    }

    #[test]
    fn valid_excluded_middle_over_theory() {
        let t = Term::or([
            Term::int_cmp_c("x", CmpOp::Le, 3),
            Term::int_cmp_c("x", CmpOp::Gt, 3),
        ]);
        assert!(is_valid(&t));
    }

    #[test]
    fn implication_over_bounds() {
        // x > 5 implies x > 3.
        assert!(implies(
            &Term::int_cmp_c("x", CmpOp::Gt, 5),
            &Term::int_cmp_c("x", CmpOp::Gt, 3)
        ));
        assert!(!implies(
            &Term::int_cmp_c("x", CmpOp::Gt, 3),
            &Term::int_cmp_c("x", CmpOp::Gt, 5)
        ));
    }

    #[test]
    fn equivalence_of_eq_and_bound_pair() {
        let eq = Term::int_cmp_c("x", CmpOp::Eq, 7);
        let pair = Term::and([
            Term::int_cmp_c("x", CmpOp::Le, 7),
            Term::int_cmp_c("x", CmpOp::Ge, 7),
        ]);
        assert!(equivalent(&eq, &pair));
    }

    #[test]
    fn paper_violation_example_null_session() {
        // Trace creates the node with only (s == null): violates.
        let pi = Term::is_null("s");
        assert!(violates(&pi, &zk_checker()).is_some());
    }

    #[test]
    fn paper_violation_example_missing_ttl_check() {
        // (s != null && !s.isClosing) — the ttl check is missing, so the
        // complement is satisfiable with s.ttl <= 0.
        let pi = Term::and([Term::not_null("s"), Term::bool_var("s.isClosing").not()]);
        let m = violates(&pi, &zk_checker()).expect("must violate");
        if let Some(Value::Int(ttl)) = m.get("s.ttl") {
            assert!(*ttl <= 0, "witness must show the unchecked ttl: {m}");
        } else {
            panic!("model should assign s.ttl: {m}");
        }
    }

    #[test]
    fn paper_verified_example_full_condition() {
        let pi = zk_checker();
        assert!(violates(&pi, &zk_checker()).is_none());
    }

    #[test]
    fn violation_with_extra_unrelated_constraints_still_verified() {
        let pi = Term::and([zk_checker(), Term::int_cmp_c("reqId", CmpOp::Gt, 100)]);
        assert!(violates(&pi, &zk_checker()).is_none());
    }

    #[test]
    fn ref_equality_propagates_through_sat() {
        // a == b && b == null && a != null  is UNSAT.
        let t = Term::and([
            Term::ref_eq("a", "b"),
            Term::is_null("b"),
            Term::not_null("a"),
        ]);
        assert!(!is_sat(&t));
    }

    #[test]
    fn string_states_conflict() {
        let t = Term::and([
            Term::str_eq_lit("state", "OPEN"),
            Term::str_eq_lit("state", "CLOSING"),
        ]);
        assert!(!is_sat(&t));
    }

    #[test]
    fn disjunctive_checker_verified_by_either_branch() {
        let checker = Term::or([
            Term::bool_var("isReadOnly"),
            Term::int_cmp_c("epoch", CmpOp::Ge, 1),
        ]);
        let pi = Term::bool_var("isReadOnly");
        assert!(violates(&pi, &checker).is_none());
        let pi2 = Term::int_cmp_c("epoch", CmpOp::Ge, 3);
        assert!(violates(&pi2, &checker).is_none());
        let pi3 = Term::int_cmp_c("epoch", CmpOp::Le, 0);
        assert!(violates(&pi3, &checker).is_some());
    }

    #[test]
    fn model_counterexample_validates() {
        let pi = Term::not_null("s");
        let m = violates(&pi, &zk_checker()).expect("violation");
        assert!(m.validated, "counterexample should validate: {m}");
    }

    #[test]
    fn int_disequality_clique_unsat() {
        // x,y,z pairwise distinct, all in [0,1]: UNSAT (needs the Eq/Ne
        // splitting to be complete).
        let in01 = |v: &str| {
            Term::and([Term::int_cmp_c(v, CmpOp::Ge, 0), Term::int_cmp_c(v, CmpOp::Le, 1)])
        };
        let t = Term::and([
            in01("x"),
            in01("y"),
            in01("z"),
            Term::int_cmp_v("x", CmpOp::Ne, "y"),
            Term::int_cmp_v("y", CmpOp::Ne, "z"),
            Term::int_cmp_v("x", CmpOp::Ne, "z"),
        ]);
        assert!(!is_sat(&t));
    }

    #[test]
    fn budgeted_check_reports_unknown_on_tiny_budget() {
        // Pairwise-distinct in [0,1] over three variables forces real
        // search; a zero-conflict budget cannot decide it.
        let in01 = |v: &str| {
            Term::and([Term::int_cmp_c(v, CmpOp::Ge, 0), Term::int_cmp_c(v, CmpOp::Le, 1)])
        };
        let t = Term::and([
            in01("x"),
            in01("y"),
            in01("z"),
            Term::int_cmp_v("x", CmpOp::Ne, "y"),
            Term::int_cmp_v("y", CmpOp::Ne, "z"),
            Term::int_cmp_v("x", CmpOp::Ne, "z"),
        ]);
        let r = Solver::with_conflict_budget(0).check(&t);
        assert!(r.is_unknown(), "expected Unknown, got {r:?}");
    }

    #[test]
    fn budgeted_violates_agrees_with_unbudgeted_when_generous() {
        let pi = Term::and([Term::not_null("s"), Term::bool_var("s.isClosing").not()]);
        match violates_budgeted(&pi, &zk_checker(), Some(1_000_000)) {
            ViolationOutcome::Violated(m) => assert!(m.validated),
            other => panic!("expected Violated, got {other:?}"),
        }
        match violates_budgeted(&zk_checker(), &zk_checker(), Some(1_000_000)) {
            ViolationOutcome::Verified => {}
            other => panic!("expected Verified, got {other:?}"),
        }
    }

    #[test]
    fn int_disequality_pair_sat() {
        let t = Term::and([
            Term::int_cmp_c("x", CmpOp::Ge, 0),
            Term::int_cmp_c("x", CmpOp::Le, 1),
            Term::int_cmp_c("y", CmpOp::Ge, 0),
            Term::int_cmp_c("y", CmpOp::Le, 1),
            Term::int_cmp_v("x", CmpOp::Ne, "y"),
        ]);
        let r = Solver::new().check(&t);
        let m = r.model().expect("sat");
        assert!(m.validated, "{m}");
    }
}

#[cfg(test)]
mod session_tests {
    use super::*;
    use crate::parse::parse_cond;

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
        assert_eq!(session.stats().queries, 4);
    }

    #[test]
    fn budgeted_queries_are_isolated_and_do_not_poison_the_session() {
        let clique = t(
            "x >= 0 && x <= 1 && y >= 0 && y <= 1 && z >= 0 && z <= 1 \
             && x != y && y != z && x != z",
        );
        let checker = clique.clone().not();
        let session = SolverSession::new(&checker);
        // Zero budget on a query that needs search: Unknown.
        let starved = session.violates_budgeted(&t("w > 0"), Some(0));
        assert!(matches!(starved, ViolationOutcome::Unknown { .. }), "{starved:?}");
        // The same query unbudgeted still gets the fresh-identical answer.
        let after = session.violates_budgeted(&t("w > 0"), None);
        let fresh = violates_budgeted(&t("w > 0"), &checker, None);
        assert!(same_outcome(&after, &fresh), "{after:?} vs {fresh:?}");
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
