//! Property tests: the DPLL(T) solver against a brute-force oracle.
//!
//! The fragment has a small-model property: integer atoms use constants in
//! a narrow range and only difference/bound constraints, so if a formula
//! is satisfiable at all it is satisfiable with every integer in a window
//! slightly wider than the constant range, refs drawn from {null, #1, #2,
//! #3}, and strings from the mentioned literals plus one fresh value.
//! Brute-force enumeration over that domain is therefore a complete
//! reference solver.
//!
//! Randomness comes from `lisa_util::Prng` with fixed seeds, so every
//! case is reproducible without an external property-testing crate.

use lisa_smt::model::{Model, Value};
use lisa_smt::solver::{implies, is_sat, violates, Solver};
use lisa_smt::term::{CmpOp, Term};
use lisa_util::Prng;

const INT_VARS: [&str; 2] = ["x", "y"];
const BOOL_VARS: [&str; 2] = ["p", "q"];
const REF_VARS: [&str; 2] = ["r", "t"];
const STR_VARS: [&str; 1] = ["s"];
const STR_LITS: [&str; 2] = ["open", "closed"];

const CMP_OPS: [CmpOp; 6] =
    [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

fn gen_atom(rng: &mut Prng) -> Term {
    match rng.gen_index(6) {
        0 => Term::bool_var(*rng.pick(&BOOL_VARS)),
        1 => {
            let v = *rng.pick(&INT_VARS);
            let op = *rng.pick(&CMP_OPS);
            Term::int_cmp_c(v, op, rng.gen_range_i64(-3, 3))
        }
        2 => {
            let a = *rng.pick(&INT_VARS);
            let op = *rng.pick(&CMP_OPS);
            let b = *rng.pick(&INT_VARS);
            Term::int_cmp_v(a, op, b)
        }
        3 => Term::is_null(*rng.pick(&REF_VARS)),
        4 => Term::ref_eq(*rng.pick(&REF_VARS), *rng.pick(&REF_VARS)),
        _ => Term::str_eq_lit(*rng.pick(&STR_VARS), *rng.pick(&STR_LITS)),
    }
}

/// Random term with bounded nesting depth, mirroring proptest's
/// `prop_recursive(3, ..)` shape: at depth 0 only atoms are produced.
fn gen_term(rng: &mut Prng, depth: usize) -> Term {
    if depth == 0 || rng.gen_bool(0.35) {
        return gen_atom(rng);
    }
    match rng.gen_index(5) {
        0 => gen_term(rng, depth - 1).not(),
        1 => {
            let n = 2 + rng.gen_index(2);
            Term::and((0..n).map(|_| gen_term(rng, depth - 1)).collect::<Vec<_>>())
        }
        2 => {
            let n = 2 + rng.gen_index(2);
            Term::or((0..n).map(|_| gen_term(rng, depth - 1)).collect::<Vec<_>>())
        }
        3 => gen_term(rng, depth - 1).implies(gen_term(rng, depth - 1)),
        _ => gen_term(rng, depth - 1).iff(gen_term(rng, depth - 1)),
    }
}

/// Enumerate the small-model domain and report whether any assignment
/// satisfies `t`.
fn brute_force_sat(t: &Term) -> bool {
    let ints: Vec<i64> = (-6..=6).collect();
    let refs: Vec<Option<u64>> = vec![None, Some(1), Some(2)];
    let strs = ["open", "closed", "$other"];
    for &x in &ints {
        for &y in &ints {
            for pb in [false, true] {
                for qb in [false, true] {
                    for &rv in &refs {
                        for &tv in &refs {
                            for sv in strs {
                                let mut m = Model::new();
                                m.set("x", Value::Int(x));
                                m.set("y", Value::Int(y));
                                m.set("p", Value::Bool(pb));
                                m.set("q", Value::Bool(qb));
                                m.set("r", Value::Ref(rv));
                                m.set("t", Value::Ref(tv));
                                m.set("s", Value::Str(sv.to_string()));
                                if m.eval(t) {
                                    return true;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    false
}

fn random_model(rng: &mut Prng) -> Model {
    let refs = [None, Some(1), Some(2)];
    let strs = ["open", "closed", "$other"];
    let mut m = Model::new();
    m.set("x", Value::Int(rng.gen_range_i64(-6, 6)));
    m.set("y", Value::Int(rng.gen_range_i64(-6, 6)));
    m.set("p", Value::Bool(rng.gen_bool(0.5)));
    m.set("q", Value::Bool(rng.gen_bool(0.5)));
    m.set("r", Value::Ref(*rng.pick(&refs)));
    m.set("t", Value::Ref(*rng.pick(&refs)));
    m.set("s", Value::Str(rng.pick(&strs).to_string()));
    m
}

#[test]
fn solver_agrees_with_brute_force() {
    let mut rng = Prng::seed_from_u64(0xabcd_0000);
    for case in 0..256 {
        let t = gen_term(&mut rng, 3);
        let expected = brute_force_sat(&t);
        let got = is_sat(&t);
        assert_eq!(got, expected, "case {case}, term: {t}");
    }
}

#[test]
fn sat_models_validate() {
    let mut rng = Prng::seed_from_u64(0xabcd_0001);
    for case in 0..256 {
        let t = gen_term(&mut rng, 3);
        let mut solver = Solver::new();
        if let lisa_smt::SatResult::Sat(m) = solver.check(&t) {
            assert!(m.validated, "case {case}: model {m} does not satisfy {t}");
        }
    }
}

#[test]
fn preprocess_preserves_truth_pointwise() {
    let mut rng = Prng::seed_from_u64(0xabcd_0002);
    for case in 0..256 {
        let t = gen_term(&mut rng, 3);
        let m = random_model(&mut rng);
        let pre = lisa_smt::preprocess(&t);
        assert_eq!(m.eval(&t), m.eval(&pre), "case {case}: term: {t} pre: {pre}");
    }
}

#[test]
fn violation_preprocessing_never_needs_the_built_conjunction() {
    let mut rng = Prng::seed_from_u64(0xabcd_0010);
    for case in 0..256 {
        let pi = gen_term(&mut rng, 3);
        let checker = gen_term(&mut rng, 3);
        let built = lisa_smt::preprocess(&Term::and([pi.clone(), checker.clone().not()]));
        let direct = lisa_smt::nnf::preprocess_violation(&pi, &checker);
        assert_eq!(direct, built, "case {case}: pi {pi} checker {checker}");
        let negated = lisa_smt::preprocess(&checker.clone().not());
        assert_eq!(lisa_smt::nnf::preprocess_negated(&checker), negated, "case {case}");
    }
}

#[test]
fn violates_is_negated_implication() {
    let mut rng = Prng::seed_from_u64(0xabcd_0003);
    for case in 0..192 {
        let pi = gen_term(&mut rng, 3);
        let checker = gen_term(&mut rng, 3);
        let v = violates(&pi, &checker).is_some();
        assert_eq!(v, !implies(&pi, &checker), "case {case}: pi {pi} checker {checker}");
    }
}

#[test]
fn double_negation_roundtrip() {
    let mut rng = Prng::seed_from_u64(0xabcd_0004);
    for case in 0..256 {
        let t = gen_term(&mut rng, 3);
        assert_eq!(is_sat(&t), is_sat(&t.clone().not().not()), "case {case}: {t}");
    }
}

#[test]
fn conjunction_with_negation_unsat() {
    let mut rng = Prng::seed_from_u64(0xabcd_0005);
    for case in 0..256 {
        let t = gen_term(&mut rng, 3);
        assert!(!is_sat(&Term::and([t.clone(), t.clone().not()])), "case {case}: {t}");
    }
}

#[test]
fn parser_roundtrips_display() {
    // Display output must re-parse to an equivalent term (sort hints
    // supplied for ref/str var-var comparisons).
    let mut rng = Prng::seed_from_u64(0xabcd_0006);
    for case in 0..256 {
        let t = gen_term(&mut rng, 3);
        let mut hints = std::collections::HashMap::new();
        for (v, sort) in t.vars() {
            hints.insert(v, sort);
        }
        let printed = t.to_string();
        let reparsed = lisa_smt::parse_cond_with(&printed, &hints)
            .unwrap_or_else(|e| panic!("case {case}: reparse of {printed:?}: {e}"));
        assert!(
            lisa_smt::equivalent(&t, &reparsed),
            "case {case}: printed {printed} reparsed {reparsed}"
        );
    }
}

/// Canonical-rendering equality for violation outcomes: witness models
/// are compared by `Display` (sorted keys; `Debug` leaks HashMap order,
/// which differs even between two fresh solves of the same query).
fn outcomes_agree(a: &lisa_smt::ViolationOutcome, b: &lisa_smt::ViolationOutcome) -> bool {
    use lisa_smt::ViolationOutcome as V;
    match (a, b) {
        (V::Violated(ma), V::Violated(mb)) => {
            ma.to_string() == mb.to_string() && ma.validated == mb.validated
        }
        (V::Verified, V::Verified) => true,
        (V::Unknown { reason: ra }, V::Unknown { reason: rb }) => ra == rb,
        _ => false,
    }
}

#[test]
fn session_agrees_with_fresh_solver_over_random_sequences() {
    // A whole sequence of queries through one SolverSession — one
    // normalized ¬checker shared by every π — answers every query
    // exactly as a fresh solver does, witness models included.
    let mut rng = Prng::seed_from_u64(0xabcd_0008);
    for case in 0..64 {
        let checker = gen_term(&mut rng, 3);
        let session = lisa_smt::SolverSession::new(&checker);
        for step in 0..6 {
            let pi = gen_term(&mut rng, 3);
            let fresh = lisa_smt::violates_budgeted(&pi, &checker, None);
            let via_session = session.violates_budgeted(&pi, None);
            assert!(
                outcomes_agree(&fresh, &via_session),
                "case {case} step {step}: pi {pi} checker {checker}: \
                 fresh {fresh:?} vs session {via_session:?}"
            );
        }
    }
}

#[test]
fn budget_exhausted_query_never_poisons_later_session_answers() {
    // Session robustness: a budget-starved (`Unknown`) query in the
    // middle of a session must leave every subsequent query answering
    // exactly as a fresh solver would — exhaustion is an answer about
    // one query's budget, never contagion into later queries.
    let mut rng = Prng::seed_from_u64(0xabcd_0009);
    for case in 0..64 {
        let checker = gen_term(&mut rng, 3);
        let session = lisa_smt::SolverSession::new(&checker);
        for step in 0..8 {
            let pi = gen_term(&mut rng, 3);
            if step % 2 == 1 {
                // Zero conflict budget: anything needing real search
                // exhausts. Whatever this returns, it must not disturb
                // the unbudgeted queries around it.
                let _ = session.violates_budgeted(&pi, Some(0));
                continue;
            }
            let fresh = lisa_smt::violates_budgeted(&pi, &checker, None);
            let via_session = session.violates_budgeted(&pi, None);
            assert!(
                outcomes_agree(&fresh, &via_session),
                "case {case} step {step}: pi {pi} checker {checker}: \
                 fresh {fresh:?} vs session {via_session:?} \
                 (after interleaved budget-exhausted queries)"
            );
        }
    }
}

#[test]
fn budgeted_session_queries_match_fresh_budgeted_answers() {
    // Budgeted queries run isolated on a throwaway solver, so even their
    // `Unknown { reason }` strings must match the fresh path's output
    // byte for byte.
    let mut rng = Prng::seed_from_u64(0xabcd_000a);
    for case in 0..64 {
        let checker = gen_term(&mut rng, 3);
        let session = lisa_smt::SolverSession::new(&checker);
        for (step, budget) in [Some(0), Some(1_000_000), None, Some(0)].into_iter().enumerate() {
            let pi = gen_term(&mut rng, 3);
            let fresh = lisa_smt::violates_budgeted(&pi, &checker, budget);
            let via_session = session.violates_budgeted(&pi, budget);
            assert!(
                outcomes_agree(&fresh, &via_session),
                "case {case} step {step} budget {budget:?}: pi {pi} checker {checker}: \
                 fresh {fresh:?} vs session {via_session:?}"
            );
        }
    }
}

#[test]
fn generous_budget_agrees_with_unbudgeted_solver() {
    // A budget large enough never to trip must leave the verdict exactly
    // where the unbudgeted solver puts it — `Unknown` is reserved for
    // genuine exhaustion, not a third answer the solver may wander into.
    let mut rng = Prng::seed_from_u64(0xabcd_0007);
    for case in 0..256 {
        let t = gen_term(&mut rng, 3);
        let unbudgeted = is_sat(&t);
        let r = Solver::with_conflict_budget(1_000_000).check(&t);
        assert!(
            !matches!(r, lisa_smt::SatResult::Unknown { .. }),
            "case {case}: generous budget must not exhaust on {t}"
        );
        assert_eq!(r.is_sat(), unbudgeted, "case {case}: {t}");
    }
}

/// Test-only reference: the `HashSet`-based `simplify` the solver used
/// before its allocation-free rewrite, kept verbatim so the rewrite can
/// be checked term for term against it.
fn reference_simplify(term: &Term) -> Term {
    use lisa_smt::nnf::fold_const_atom;
    match term {
        Term::Atom(a) => match fold_const_atom(a) {
            Some(true) => Term::True,
            Some(false) => Term::False,
            None => term.clone(),
        },
        Term::Not(inner) => match inner.as_ref() {
            Term::Atom(a) => match fold_const_atom(a) {
                Some(true) => Term::False,
                Some(false) => Term::True,
                None => term.clone(),
            },
            _ => reference_simplify(inner).not(),
        },
        Term::And(ts) => {
            let mut parts = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for t in ts {
                let s = reference_simplify(t);
                match s {
                    Term::True => {}
                    Term::False => return Term::False,
                    s => {
                        if seen.insert(s.clone()) {
                            if seen.contains(&s.clone().not()) {
                                return Term::False;
                            }
                            parts.push(s);
                        }
                    }
                }
            }
            Term::and(parts)
        }
        Term::Or(ts) => {
            let mut parts = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for t in ts {
                let s = reference_simplify(t);
                match s {
                    Term::False => {}
                    Term::True => return Term::True,
                    s => {
                        if seen.insert(s.clone()) {
                            if seen.contains(&s.clone().not()) {
                                return Term::True;
                            }
                            parts.push(s);
                        }
                    }
                }
            }
            Term::or(parts)
        }
        t => t.clone(),
    }
}

/// A small pool of atoms, their negations and constant-folding atoms, so
/// that lists drawn from it repeat entries and contain complementary
/// pairs far more often than `gen_term` does.
fn small_pool() -> Vec<Term> {
    let atoms = [
        Term::bool_var("p"),
        Term::int_cmp_c("x", CmpOp::Le, 1),
        Term::is_null("r"),
        Term::str_eq_lit("s", "open"),
        Term::int_cmp_v("x", CmpOp::Eq, "x"),
    ];
    let mut pool = Vec::new();
    for a in atoms {
        pool.push(a.clone().not());
        pool.push(a);
    }
    pool.push(Term::True);
    pool.push(Term::False);
    pool
}

/// A raw `And`/`Or` list (not flattened by the builders) over the small
/// pool, nested one level now and then.
fn gen_pool_list(rng: &mut Prng, pool: &[Term], depth: usize) -> Term {
    let n = rng.gen_index(6);
    let parts: Vec<Term> = (0..n)
        .map(|_| {
            if depth > 0 && rng.gen_bool(0.2) {
                gen_pool_list(rng, pool, depth - 1)
            } else {
                rng.pick(pool).clone()
            }
        })
        .collect();
    if rng.gen_bool(0.5) {
        Term::And(parts)
    } else {
        Term::Or(parts)
    }
}

#[test]
fn simplify_matches_the_hashset_reference_term_for_term() {
    use lisa_smt::nnf::{simplify, to_nnf};
    let mut rng = Prng::seed_from_u64(0xabcd_0011);
    for case in 0..4096 {
        let t = gen_term(&mut rng, 3);
        assert_eq!(simplify(&t), reference_simplify(&t), "case {case}: {t}");
        let n = to_nnf(&t);
        assert_eq!(simplify(&n), reference_simplify(&n), "case {case}: nnf {n}");
    }
    let pool = small_pool();
    for case in 0..4096 {
        let t = gen_pool_list(&mut rng, &pool, 2);
        assert_eq!(simplify(&t), reference_simplify(&t), "pool case {case}: {t}");
        let n = to_nnf(&t);
        assert_eq!(simplify(&n), reference_simplify(&n), "pool case {case}: nnf {n}");
    }
}
