//! Negation normal form and structural simplification.
//!
//! The solver pipeline first lowers arbitrary terms (with `->`, `<->`,
//! nested negation) into NNF — negation applied only to atoms — then
//! performs cheap structural simplifications (constant folding, flattening,
//! duplicate removal, complementary-literal detection) that keep the later
//! CNF conversion small.

use std::borrow::Cow;
use std::cmp::Ordering;

use crate::term::{Atom, CmpOp, IntOperand, StrOperand, Term};

/// A literal: an atom with a polarity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Literal {
    pub atom: Atom,
    pub positive: bool,
}

impl Literal {
    pub fn new(atom: Atom, positive: bool) -> Self {
        Literal { atom, positive }
    }

    pub fn negate(&self) -> Literal {
        Literal { atom: self.atom.clone(), positive: !self.positive }
    }

    /// Render as a term.
    pub fn to_term(&self) -> Term {
        let t = Term::Atom(self.atom.clone());
        if self.positive {
            t
        } else {
            t.not()
        }
    }
}

impl std::fmt::Display for Literal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_term())
    }
}

/// Convert to negation normal form.
///
/// The result contains only `True`, `False`, `Atom`, `Not(Atom)`, `And`,
/// and `Or` nodes. Integer atoms are canonicalized (see
/// [`canonicalize_atom`]) so that syntactically different spellings of the
/// same constraint share a SAT variable.
pub fn to_nnf(term: &Term) -> Term {
    nnf(term, true)
}

fn nnf(term: &Term, positive: bool) -> Term {
    match term {
        Term::True => {
            if positive {
                Term::True
            } else {
                Term::False
            }
        }
        Term::False => {
            if positive {
                Term::False
            } else {
                Term::True
            }
        }
        Term::Atom(a) => {
            // Integer equality is split into a bound pair so the theory
            // solver only ever sees pure difference constraints (for which
            // it is complete): `a == b` becomes `a <= b && a >= b`, and its
            // negation the disjunction `a < b || a > b`.
            if let Atom::IntCmp(x, op @ (CmpOp::Eq | CmpOp::Ne), y) = a {
                let le = Term::Atom(Atom::IntCmp(x.clone(), CmpOp::Le, y.clone()));
                let ge = Term::Atom(Atom::IntCmp(x.clone(), CmpOp::Ge, y.clone()));
                let want_eq = (*op == CmpOp::Eq) == positive;
                return if want_eq {
                    Term::and([nnf(&le, true), nnf(&ge, true)])
                } else {
                    Term::or([nnf(&le, false), nnf(&ge, false)])
                };
            }
            let (atom, flipped) = canonicalize_atom(a);
            let pos = positive ^ flipped;
            let t = Term::Atom(atom);
            if pos {
                t
            } else {
                Term::Not(Box::new(t))
            }
        }
        Term::Not(t) => nnf(t, !positive),
        Term::And(ts) => {
            let parts: Vec<Term> = ts.iter().map(|t| nnf(t, positive)).collect();
            if positive {
                Term::and(parts)
            } else {
                Term::or(parts)
            }
        }
        Term::Or(ts) => {
            let parts: Vec<Term> = ts.iter().map(|t| nnf(t, positive)).collect();
            if positive {
                Term::or(parts)
            } else {
                Term::and(parts)
            }
        }
        Term::Implies(a, b) => {
            // a -> b  ==  !a || b
            if positive {
                Term::or([nnf(a, false), nnf(b, true)])
            } else {
                Term::and([nnf(a, true), nnf(b, false)])
            }
        }
        Term::Iff(a, b) => {
            // a <-> b  ==  (a && b) || (!a && !b)
            let both = Term::and([nnf(a, positive), nnf(b, true)]);
            let neither = Term::and([nnf(a, !positive), nnf(b, false)]);
            Term::or([both, neither])
        }
    }
}

/// Canonicalize an integer atom so that equal constraints are
/// syntactically equal; returns the canonical atom and whether the
/// polarity was flipped.
///
/// Canonical form rules:
/// - constants move to the right-hand side (`3 < x` becomes `x > 3`),
/// - `Ne` becomes negated `Eq`, `Gt`/`Ge` between two vars become flipped
///   `Lt`/`Le` when the variable names are out of order,
/// - constant-vs-constant comparisons fold to `True`/`False` upstream (the
///   atom is kept; [`fold_const_atom`] handles it).
pub fn canonicalize_atom(atom: &Atom) -> (Atom, bool) {
    match atom {
        Atom::IntCmp(a, op, b) => {
            let (mut a, mut op, mut b) = (a.clone(), *op, b.clone());
            // Move constant to the right.
            if matches!(a, IntOperand::Const(_)) && matches!(b, IntOperand::Var(_)) {
                std::mem::swap(&mut a, &mut b);
                op = op.flip();
            }
            // Order var-var atoms by name.
            if let (IntOperand::Var(x), IntOperand::Var(y)) = (&a, &b) {
                if x > y {
                    std::mem::swap(&mut a, &mut b);
                    op = op.flip();
                }
            }
            // Express Ne as !Eq, Gt as !Le, Ge as !Lt so each semantic
            // constraint has exactly one positive spelling.
            match op {
                CmpOp::Ne => (Atom::IntCmp(a, CmpOp::Eq, b), true),
                CmpOp::Gt => (Atom::IntCmp(a, CmpOp::Le, b), true),
                CmpOp::Ge => (Atom::IntCmp(a, CmpOp::Lt, b), true),
                op => (Atom::IntCmp(a, op, b), false),
            }
        }
        Atom::RefEq(a, b) => {
            let (mut a, mut b) = (a.clone(), b.clone());
            // Variables sort before `null` so null checks render in the
            // idiomatic `x == null` order; var-var pairs sort by name.
            let swap = match (&a, &b) {
                (crate::term::RefOperand::Null, crate::term::RefOperand::Var(_)) => true,
                (crate::term::RefOperand::Var(x), crate::term::RefOperand::Var(y)) => x > y,
                _ => false,
            };
            if swap {
                std::mem::swap(&mut a, &mut b);
            }
            (Atom::RefEq(a, b), false)
        }
        Atom::StrEq(a, b) => {
            let (mut a, mut b) = (a.clone(), b.clone());
            if str_operand_debug_cmp(&a, &b) == Ordering::Greater {
                std::mem::swap(&mut a, &mut b);
            }
            (Atom::StrEq(a, b), false)
        }
        a => (a.clone(), false),
    }
}

/// The order of `format!("{a:?}")` and `format!("{b:?}")`, the order
/// string atoms are canonicalized by, without formatting either. The
/// `Debug` strings are `Lit("…")` or `Var("…")`, so a `Lit` sorts first,
/// and within one variant the texts compare as if each were followed by
/// its closing `"`: `"a!"` sorts before `"a"`, since `!` is below `"`.
/// Only a text with a char that `{:?}` escapes is compared formatted.
fn str_operand_debug_cmp(a: &StrOperand, b: &StrOperand) -> Ordering {
    let (x, y) = match (a, b) {
        (StrOperand::Lit(_), StrOperand::Var(_)) => return Ordering::Less,
        (StrOperand::Var(_), StrOperand::Lit(_)) => return Ordering::Greater,
        (StrOperand::Lit(x), StrOperand::Lit(y)) | (StrOperand::Var(x), StrOperand::Var(y)) => {
            (x, y)
        }
    };
    // `str`'s `Debug` escapes a char exactly when `char::escape_debug`
    // does, except for `'`, which only a `char` literal escapes.
    let escaped = |s: &str| s.chars().any(|c| c != '\'' && c.escape_debug().len() != 1);
    if escaped(x) || escaped(y) {
        return format!("{a:?}").cmp(&format!("{b:?}"));
    }
    let closing = std::iter::once(b'"');
    x.bytes().chain(closing.clone()).cmp(y.bytes().chain(closing))
}

/// Fold atoms whose truth is decided syntactically (const-vs-const
/// comparisons, `x == x`, `null == null`). Returns `None` when the atom is
/// genuinely symbolic.
pub fn fold_const_atom(atom: &Atom) -> Option<bool> {
    match atom {
        Atom::IntCmp(IntOperand::Const(a), op, IntOperand::Const(b)) => Some(op.eval(*a, *b)),
        Atom::IntCmp(IntOperand::Var(x), op, IntOperand::Var(y)) if x == y => match op {
            CmpOp::Eq | CmpOp::Le | CmpOp::Ge => Some(true),
            CmpOp::Ne | CmpOp::Lt | CmpOp::Gt => Some(false),
        },
        Atom::RefEq(crate::term::RefOperand::Null, crate::term::RefOperand::Null) => Some(true),
        Atom::RefEq(crate::term::RefOperand::Var(x), crate::term::RefOperand::Var(y)) if x == y => {
            Some(true)
        }
        Atom::StrEq(crate::term::StrOperand::Lit(a), crate::term::StrOperand::Lit(b)) => {
            Some(a == b)
        }
        Atom::StrEq(crate::term::StrOperand::Var(x), crate::term::StrOperand::Var(y)) if x == y => {
            Some(true)
        }
        _ => None,
    }
}

/// Simplify an NNF term: fold constant atoms, drop duplicate conjuncts /
/// disjuncts, and detect complementary literal pairs.
pub fn simplify(term: &Term) -> Term {
    match term {
        Term::And(ts) => simplify_junction(ts.iter().map(Cow::Borrowed), true),
        Term::Or(ts) => simplify_junction(ts.iter().map(Cow::Borrowed), false),
        Term::Not(inner) if !matches!(**inner, Term::Atom(_)) => simplify(inner).not(),
        t => match fold_literal(t) {
            Some(value) => constant(value),
            None => t.clone(),
        },
    }
}

/// [`simplify`] of a term the caller gives up: every part it keeps
/// moves into the result instead of being cloned.
fn simplify_owned(term: Term) -> Term {
    match term {
        Term::And(ts) => simplify_junction(ts.into_iter().map(Cow::Owned), true),
        Term::Or(ts) => simplify_junction(ts.into_iter().map(Cow::Owned), false),
        Term::Not(inner) if !matches!(*inner, Term::Atom(_)) => simplify_owned(*inner).not(),
        t => match fold_literal(&t) {
            Some(value) => constant(value),
            None => t,
        },
    }
}

/// The constant a literal (an atom or a negated atom) folds to, if any.
fn fold_literal(t: &Term) -> Option<bool> {
    match t {
        Term::Atom(a) => fold_const_atom(a),
        Term::Not(inner) => match inner.as_ref() {
            Term::Atom(a) => fold_const_atom(a).map(|v| !v),
            _ => None,
        },
        _ => None,
    }
}

fn constant(value: bool) -> Term {
    if value {
        Term::True
    } else {
        Term::False
    }
}

/// Simplify one part of a junction, by moving it if it is owned.
fn simplify_part(t: Cow<'_, Term>) -> Term {
    match t {
        Cow::Borrowed(t) => simplify(t),
        Cow::Owned(t) => simplify_owned(t),
    }
}

/// Simplify the parts of a conjunction (`conjunction`) or disjunction:
/// drop the neutral constant, short-circuit on the absorbing one, keep
/// the first copy of each duplicate, and absorb when a part meets its
/// complement. Parts are compared in place against the ones already
/// kept, so nothing is cloned or hashed to find a duplicate or a
/// complement; each kept part is built once, by `simplify`, or moved
/// in by `simplify_owned` when the caller gave it up.
fn simplify_junction<'a>(
    ts: impl IntoIterator<Item = Cow<'a, Term>>,
    conjunction: bool,
) -> Term {
    let absorbing = if conjunction { Term::False } else { Term::True };
    let mut parts: Vec<Term> = Vec::new();
    for t in ts {
        let s = simplify_part(t);
        match (&s, conjunction) {
            (Term::True, true) | (Term::False, false) => continue,
            (Term::False, true) | (Term::True, false) => return absorbing,
            _ => {}
        }
        if parts.contains(&s) {
            continue;
        }
        if parts.iter().any(|p| is_complement(p, &s)) {
            return absorbing;
        }
        parts.push(s);
    }
    if conjunction {
        Term::and(parts)
    } else {
        Term::or(parts)
    }
}

/// `p == s.clone().not()`, decided without building `¬s`. `s` is never
/// a constant here (the caller folds those first), so `¬s` is `s`'s
/// operand when `s` is a negation and `Not(s)` otherwise.
fn is_complement(p: &Term, s: &Term) -> bool {
    match (p, s) {
        (p, Term::Not(inner)) => p == inner.as_ref(),
        (Term::Not(inner), s) => inner.as_ref() == s,
        _ => false,
    }
}

/// Full preprocessing: NNF + simplification.
pub fn preprocess(term: &Term) -> Term {
    simplify_owned(to_nnf(term))
}

/// The NNF of `¬term`, without cloning `term` to negate it: `term`'s
/// NNF taken at negative polarity.
pub fn to_nnf_negated(term: &Term) -> Term {
    nnf(term, false)
}

/// [`preprocess`] of `¬term`, without cloning `term` to negate it.
pub fn preprocess_negated(term: &Term) -> Term {
    simplify_owned(to_nnf_negated(term))
}

/// [`preprocess`] of the violation query `π ∧ ¬checker`, without
/// cloning either side into the conjunction. Equal, term for term, to
/// `preprocess(&Term::and([pi.clone(), checker.clone().not()]))`.
pub fn preprocess_violation(pi: &Term, checker: &Term) -> Term {
    violation_query(to_nnf(pi), &to_nnf_negated(checker))
}

/// The canonical violation query from its two halves in NNF: `pi_nnf`
/// is [`to_nnf`] of π and `negated_nnf` is [`to_nnf_negated`] of the
/// checker. The NNF of a conjunction is the conjunction of its parts'
/// NNFs, and `Term::and` would splice each half's conjuncts into one
/// flat list before simplifying it; this simplifies that list in place,
/// so a caller that asks many queries of one checker normalizes `¬checker`
/// once and builds no conjunction per query. `pi_nnf` is consumed: the
/// parts of π the query keeps move into it, and only the parts of
/// `¬checker`, which the caller keeps for its next query, are cloned.
pub fn violation_query(pi_nnf: Term, negated_nnf: &Term) -> Term {
    // The parts `Term::and` splices in for a term: an `And`'s operands,
    // or the term itself. A constant passes through as itself, and
    // `simplify_junction` drops `True` and absorbs on `False` exactly as
    // `Term::and` does.
    let (pi_parts, pi_whole) = match pi_nnf {
        Term::And(ts) => (ts, None),
        t => (Vec::new(), Some(t)),
    };
    let negated_parts = match negated_nnf {
        Term::And(ts) => ts.as_slice(),
        t => std::slice::from_ref(t),
    };
    let pi = pi_parts.into_iter().chain(pi_whole).map(Cow::Owned);
    simplify_junction(pi.chain(negated_parts.iter().map(Cow::Borrowed)), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{CmpOp, Term};

    #[test]
    fn nnf_pushes_negation_to_atoms() {
        let t = Term::and([Term::bool_var("a"), Term::bool_var("b")]).not();
        let n = to_nnf(&t);
        assert_eq!(n.to_string(), "!a || !b");
    }

    #[test]
    fn nnf_implies() {
        let t = Term::bool_var("a").implies(Term::bool_var("b"));
        assert_eq!(to_nnf(&t).to_string(), "!a || b");
    }

    #[test]
    fn nnf_iff_expands() {
        let t = Term::bool_var("a").iff(Term::bool_var("b"));
        let n = to_nnf(&t);
        assert_eq!(n.to_string(), "a && b || !a && !b");
    }

    #[test]
    fn canonical_moves_constant_right() {
        // 3 < x  ==>  x > 3  ==> !(x <= 3)
        let t = Term::Atom(Atom::IntCmp(IntOperand::Const(3), CmpOp::Lt, IntOperand::Var("x".into())));
        let n = to_nnf(&t);
        assert_eq!(n.to_string(), "x > 3");
        // Same canonical atom as x > 3 written directly.
        let direct = to_nnf(&Term::int_cmp_c("x", CmpOp::Gt, 3));
        assert_eq!(n, direct);
    }

    #[test]
    fn canonical_merges_ne_and_not_eq() {
        let a = to_nnf(&Term::int_cmp_c("x", CmpOp::Ne, 5));
        let b = to_nnf(&Term::int_cmp_c("x", CmpOp::Eq, 5).not());
        assert_eq!(a, b);
    }

    #[test]
    fn simplify_folds_const_comparison() {
        let t = Term::and([Term::int_cmp_c("x", CmpOp::Gt, 0), {
            Term::Atom(Atom::IntCmp(IntOperand::Const(1), CmpOp::Lt, IntOperand::Const(2)))
        }]);
        assert_eq!(preprocess(&t).to_string(), "x > 3".replace('3', "0"));
    }

    #[test]
    fn simplify_detects_complementary_conjuncts() {
        let t = Term::and([Term::bool_var("a"), Term::bool_var("a").not()]);
        assert_eq!(preprocess(&t), Term::False);
    }

    #[test]
    fn simplify_detects_complementary_disjuncts() {
        let t = Term::or([
            Term::int_cmp_c("x", CmpOp::Le, 3),
            Term::int_cmp_c("x", CmpOp::Gt, 3),
        ]);
        assert_eq!(preprocess(&t), Term::True);
    }

    #[test]
    fn simplify_dedups() {
        let a = Term::bool_var("a");
        let t = Term::and([a.clone(), a.clone(), a.clone()]);
        assert_eq!(preprocess(&t), a);
    }

    #[test]
    fn violation_preprocessing_equals_the_built_conjunction() {
        let a = Term::bool_var("a");
        let b = Term::int_cmp_c("x", CmpOp::Eq, 3);
        // Raw nesting the builders would flatten, plus constants.
        let nested = Term::And(vec![a.clone(), Term::And(vec![b.clone(), Term::True])]);
        let terms = [
            Term::True,
            Term::False,
            a.clone(),
            a.clone().not(),
            Term::Not(Box::new(nested.clone())),
            Term::Not(Box::new(Term::Not(Box::new(b.clone())))),
            nested,
            Term::or([a.clone(), b.clone()]).not(),
            a.clone().implies(b.clone()),
            a.iff(b),
        ];
        for pi in &terms {
            for checker in &terms {
                let built = preprocess(&Term::and([pi.clone(), checker.clone().not()]));
                assert_eq!(preprocess_violation(pi, checker), built, "{pi} / {checker}");
            }
            assert_eq!(preprocess_negated(pi), preprocess(&pi.clone().not()), "{pi}");
        }
    }

    #[test]
    fn string_atom_order_matches_the_formatted_order() {
        let texts = [
            "", "a", "a!", "a ", "a\"", "a\\", "a\n", "a\u{7}", "ab", "a\u{7f}", "OPEN",
            "OPENING", "open", "é", "e\u{301}", "\u{301}", "日本", "日", "'", "a'b", "\u{200b}",
            "~", "\u{10ffff}",
        ];
        let operands: Vec<StrOperand> = texts
            .iter()
            .flat_map(|t| [StrOperand::Lit(t.to_string()), StrOperand::Var(t.to_string())])
            .collect();
        for a in &operands {
            for b in &operands {
                let formatted = format!("{a:?}").cmp(&format!("{b:?}"));
                assert_eq!(str_operand_debug_cmp(a, b), formatted, "{a:?} vs {b:?}");
            }
        }
        // The closing quote decides a shared prefix: `!` and ` ` sort
        // below `"`, where a plain `str` comparison says the opposite.
        let lit = |s: &str| StrOperand::Lit(s.to_string());
        assert_eq!(str_operand_debug_cmp(&lit("a!"), &lit("a")), Ordering::Less);
        assert_eq!("a!".cmp("a"), Ordering::Greater);
    }

    #[test]
    fn fold_x_eq_x() {
        assert_eq!(
            fold_const_atom(&Atom::IntCmp(
                IntOperand::Var("x".into()),
                CmpOp::Eq,
                IntOperand::Var("x".into())
            )),
            Some(true)
        );
    }
}
