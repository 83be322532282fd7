//! Term representation for the LISA predicate fragment.
//!
//! Low-level semantics in the paper are conjunctions/disjunctions of
//! *implementation-local* predicates: null checks (`s != null`), boolean
//! field reads (`s.isClosing == false`), and integer comparisons
//! (`s.ttl > 0`). This module defines the term AST for exactly that
//! fragment, together with builder helpers and a canonical text rendering.
//!
//! Variable names are free-form strings; a dotted path such as
//! `session.isClosing` is a single variable from the solver's point of
//! view (field paths are flattened before solving).

use std::fmt;

/// The sort (type) of a variable or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sort {
    /// Two-valued booleans.
    Bool,
    /// Mathematical integers (modelled as `i64` in models).
    Int,
    /// Reference values: either `null` or an opaque heap identity.
    Ref,
    /// Immutable strings compared only for equality.
    Str,
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::Int => write!(f, "Int"),
            Sort::Ref => write!(f, "Ref"),
            Sort::Str => write!(f, "Str"),
        }
    }
}

/// Comparison operators over integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator that holds exactly when `self` does not.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with its arguments swapped: `a op b == b op.flip() a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Evaluate the comparison on concrete integers.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// An integer-sorted operand: a variable or a constant.
///
/// The fragment is deliberately restricted to `var op var` and
/// `var op const` atoms — difference-bound constraints — which keeps the
/// theory decidable with a shortest-path argument while covering every
/// rule shape observed in the paper's corpus.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IntOperand {
    Var(String),
    Const(i64),
}

impl fmt::Display for IntOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntOperand::Var(v) => write!(f, "{v}"),
            IntOperand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A reference-sorted operand: `null` or a variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RefOperand {
    Null,
    Var(String),
}

impl fmt::Display for RefOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefOperand::Null => write!(f, "null"),
            RefOperand::Var(v) => write!(f, "{v}"),
        }
    }
}

/// A string-sorted operand: a literal or a variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StrOperand {
    Lit(String),
    Var(String),
}

impl fmt::Display for StrOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrOperand::Lit(s) => write!(f, "{s:?}"),
            StrOperand::Var(v) => write!(f, "{v}"),
        }
    }
}

/// A theory atom — the leaves of the boolean structure.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Atom {
    /// A boolean variable (e.g. a flattened boolean field `s.isClosing`).
    BoolVar(String),
    /// Integer comparison between two operands.
    IntCmp(IntOperand, CmpOp, IntOperand),
    /// Reference equality (`Ne` is expressed with [`Term::Not`]).
    RefEq(RefOperand, RefOperand),
    /// String equality (`Ne` is expressed with [`Term::Not`]).
    StrEq(StrOperand, StrOperand),
}

impl Atom {
    /// Call `f` on each variable occurrence of this atom, left to right,
    /// with its sort.
    pub fn each_var<'a>(&'a self, f: &mut dyn FnMut(&'a str, Sort)) {
        match self {
            Atom::BoolVar(v) => f(v, Sort::Bool),
            Atom::IntCmp(a, _, b) => {
                for op in [a, b] {
                    if let IntOperand::Var(v) = op {
                        f(v, Sort::Int);
                    }
                }
            }
            Atom::RefEq(a, b) => {
                for op in [a, b] {
                    if let RefOperand::Var(v) = op {
                        f(v, Sort::Ref);
                    }
                }
            }
            Atom::StrEq(a, b) => {
                for op in [a, b] {
                    if let StrOperand::Var(v) = op {
                        f(v, Sort::Str);
                    }
                }
            }
        }
    }

    /// Does `pred` hold for any variable of this atom? Visits in the
    /// order [`Atom::vars`] lists them and allocates nothing.
    pub fn any_var(&self, pred: &mut dyn FnMut(&str) -> bool) -> bool {
        match self {
            Atom::BoolVar(v) => pred(v),
            Atom::IntCmp(a, _, b) => {
                [a, b].into_iter().any(|o| matches!(o, IntOperand::Var(v) if pred(v)))
            }
            Atom::RefEq(a, b) => {
                [a, b].into_iter().any(|o| matches!(o, RefOperand::Var(v) if pred(v)))
            }
            Atom::StrEq(a, b) => {
                [a, b].into_iter().any(|o| matches!(o, StrOperand::Var(v) if pred(v)))
            }
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::BoolVar(v) => write!(f, "{v}"),
            Atom::IntCmp(a, op, b) => write!(f, "{a} {op} {b}"),
            Atom::RefEq(a, b) => write!(f, "{a} == {b}"),
            Atom::StrEq(a, b) => write!(f, "{a} == {b}"),
        }
    }
}

/// A boolean term over [`Atom`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    True,
    False,
    Atom(Atom),
    Not(Box<Term>),
    And(Vec<Term>),
    Or(Vec<Term>),
    Implies(Box<Term>, Box<Term>),
    Iff(Box<Term>, Box<Term>),
}

impl Term {
    // ---- builders -------------------------------------------------------

    /// Boolean variable atom.
    pub fn bool_var(name: impl Into<String>) -> Term {
        Term::Atom(Atom::BoolVar(name.into()))
    }

    /// `var op const` integer comparison.
    pub fn int_cmp_c(var: impl Into<String>, op: CmpOp, c: i64) -> Term {
        Term::Atom(Atom::IntCmp(IntOperand::Var(var.into()), op, IntOperand::Const(c)))
    }

    /// `var op var` integer comparison.
    pub fn int_cmp_v(a: impl Into<String>, op: CmpOp, b: impl Into<String>) -> Term {
        Term::Atom(Atom::IntCmp(IntOperand::Var(a.into()), op, IntOperand::Var(b.into())))
    }

    /// `var == null`.
    pub fn is_null(var: impl Into<String>) -> Term {
        Term::Atom(Atom::RefEq(RefOperand::Var(var.into()), RefOperand::Null))
    }

    /// `var != null`.
    pub fn not_null(var: impl Into<String>) -> Term {
        Term::is_null(var).not()
    }

    /// `a == b` over references.
    pub fn ref_eq(a: impl Into<String>, b: impl Into<String>) -> Term {
        Term::Atom(Atom::RefEq(RefOperand::Var(a.into()), RefOperand::Var(b.into())))
    }

    /// `var == "lit"` over strings.
    pub fn str_eq_lit(var: impl Into<String>, lit: impl Into<String>) -> Term {
        Term::Atom(Atom::StrEq(StrOperand::Var(var.into()), StrOperand::Lit(lit.into())))
    }

    /// Negation; collapses double negation.
    #[allow(clippy::should_implement_trait)] // by-value builder, not ops::Not
    pub fn not(self) -> Term {
        match self {
            Term::True => Term::False,
            Term::False => Term::True,
            Term::Not(t) => *t,
            t => Term::Not(Box::new(t)),
        }
    }

    /// N-ary conjunction; drops `true`, short-circuits on `false`.
    pub fn and(terms: impl IntoIterator<Item = Term>) -> Term {
        let mut out = Vec::new();
        for t in terms {
            match t {
                Term::True => {}
                Term::False => return Term::False,
                Term::And(inner) => out.extend(inner),
                t => out.push(t),
            }
        }
        match out.len() {
            0 => Term::True,
            1 => out.pop().expect("len checked"),
            _ => Term::And(out),
        }
    }

    /// N-ary disjunction; drops `false`, short-circuits on `true`.
    pub fn or(terms: impl IntoIterator<Item = Term>) -> Term {
        let mut out = Vec::new();
        for t in terms {
            match t {
                Term::False => {}
                Term::True => return Term::True,
                Term::Or(inner) => out.extend(inner),
                t => out.push(t),
            }
        }
        match out.len() {
            0 => Term::False,
            1 => out.pop().expect("len checked"),
            _ => Term::Or(out),
        }
    }

    /// `a -> b`.
    pub fn implies(self, other: Term) -> Term {
        Term::Implies(Box::new(self), Box::new(other))
    }

    /// `a <-> b`.
    pub fn iff(self, other: Term) -> Term {
        Term::Iff(Box::new(self), Box::new(other))
    }

    // ---- queries --------------------------------------------------------

    /// All variables with their sorts, deduplicated, in first-seen order.
    pub fn vars(&self) -> Vec<(String, Sort)> {
        let mut raw = Vec::new();
        self.collect_vars(&mut raw);
        let mut seen = std::collections::HashSet::new();
        raw.retain(|(v, _)| seen.insert(v.clone()));
        raw
    }

    fn collect_vars(&self, out: &mut Vec<(String, Sort)>) {
        match self {
            Term::True | Term::False => {}
            Term::Atom(a) => a.each_var(&mut |v, sort| out.push((v.to_string(), sort))),
            Term::Not(t) => t.collect_vars(out),
            Term::And(ts) | Term::Or(ts) => {
                for t in ts {
                    t.collect_vars(out);
                }
            }
            Term::Implies(a, b) | Term::Iff(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Does `pred` hold for any variable occurrence of the term? The
    /// allocation-free counterpart of [`Term::vars`] for yes/no questions.
    pub fn any_var(&self, pred: &mut dyn FnMut(&str) -> bool) -> bool {
        match self {
            Term::True | Term::False => false,
            Term::Atom(a) => a.any_var(pred),
            Term::Not(t) => t.any_var(pred),
            Term::And(ts) | Term::Or(ts) => ts.iter().any(|t| t.any_var(pred)),
            Term::Implies(a, b) | Term::Iff(a, b) => a.any_var(pred) || b.any_var(pred),
        }
    }

    /// All distinct atoms in the term, in first-seen order.
    pub fn atoms(&self) -> Vec<Atom> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        let mut seen = std::collections::HashSet::new();
        out.retain(|a| seen.insert(a.clone()));
        out
    }

    fn collect_atoms(&self, out: &mut Vec<Atom>) {
        match self {
            Term::True | Term::False => {}
            Term::Atom(a) => out.push(a.clone()),
            Term::Not(t) => t.collect_atoms(out),
            Term::And(ts) | Term::Or(ts) => {
                for t in ts {
                    t.collect_atoms(out);
                }
            }
            Term::Implies(a, b) | Term::Iff(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
        }
    }

    /// Number of AST nodes — a rough size measure used by benchmarks.
    pub fn size(&self) -> usize {
        match self {
            Term::True | Term::False | Term::Atom(_) => 1,
            Term::Not(t) => 1 + t.size(),
            Term::And(ts) | Term::Or(ts) => 1 + ts.iter().map(Term::size).sum::<usize>(),
            Term::Implies(a, b) | Term::Iff(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Rename every variable through `f` (used to map rule placeholders
    /// onto concrete program variables).
    pub fn rename_vars(&self, f: &dyn Fn(&str) -> String) -> Term {
        let ren_int = |o: &IntOperand| match o {
            IntOperand::Var(v) => IntOperand::Var(f(v)),
            c => c.clone(),
        };
        let ren_ref = |o: &RefOperand| match o {
            RefOperand::Var(v) => RefOperand::Var(f(v)),
            c => c.clone(),
        };
        let ren_str = |o: &StrOperand| match o {
            StrOperand::Var(v) => StrOperand::Var(f(v)),
            c => c.clone(),
        };
        match self {
            Term::True => Term::True,
            Term::False => Term::False,
            Term::Atom(a) => Term::Atom(match a {
                Atom::BoolVar(v) => Atom::BoolVar(f(v)),
                Atom::IntCmp(x, op, y) => Atom::IntCmp(ren_int(x), *op, ren_int(y)),
                Atom::RefEq(x, y) => Atom::RefEq(ren_ref(x), ren_ref(y)),
                Atom::StrEq(x, y) => Atom::StrEq(ren_str(x), ren_str(y)),
            }),
            Term::Not(t) => Term::Not(Box::new(t.rename_vars(f))),
            Term::And(ts) => Term::And(ts.iter().map(|t| t.rename_vars(f)).collect()),
            Term::Or(ts) => Term::Or(ts.iter().map(|t| t.rename_vars(f)).collect()),
            Term::Implies(a, b) => {
                Term::Implies(Box::new(a.rename_vars(f)), Box::new(b.rename_vars(f)))
            }
            Term::Iff(a, b) => Term::Iff(Box::new(a.rename_vars(f)), Box::new(b.rename_vars(f))),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fn prec(t: &Term) -> u8 {
                match t {
                    Term::True | Term::False | Term::Atom(_) | Term::Not(_) => 4,
                    Term::And(_) => 3,
                    Term::Or(_) => 2,
                    Term::Implies(_, _) => 1,
                    Term::Iff(_, _) => 0,
                }
            }
            fn go(t: &Term, parent: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let p = prec(t);
                let need_paren = p < parent;
                if need_paren {
                    write!(f, "(")?;
                }
                match t {
                    Term::True => write!(f, "true")?,
                    Term::False => write!(f, "false")?,
                    Term::Atom(a) => write!(f, "{a}")?,
                    Term::Not(inner) => {
                        // Render `!(x == y)` as `x != y` where possible.
                        match inner.as_ref() {
                            Term::Atom(Atom::RefEq(a, b)) => write!(f, "{a} != {b}")?,
                            Term::Atom(Atom::StrEq(a, b)) => write!(f, "{a} != {b}")?,
                            Term::Atom(Atom::IntCmp(a, op, b)) => {
                                write!(f, "{a} {} {b}", op.negate())?
                            }
                            Term::Atom(Atom::BoolVar(v)) => write!(f, "!{v}")?,
                            _ => {
                                write!(f, "!")?;
                                go(inner, 4, f)?;
                            }
                        }
                    }
                    Term::And(ts) => {
                        for (i, t) in ts.iter().enumerate() {
                            if i > 0 {
                                write!(f, " && ")?;
                            }
                            go(t, p + 1, f)?;
                        }
                    }
                    Term::Or(ts) => {
                        for (i, t) in ts.iter().enumerate() {
                            if i > 0 {
                                write!(f, " || ")?;
                            }
                            go(t, p + 1, f)?;
                        }
                    }
                    Term::Implies(a, b) => {
                        go(a, p + 1, f)?;
                        write!(f, " -> ")?;
                        go(b, p, f)?;
                    }
                    Term::Iff(a, b) => {
                        go(a, p + 1, f)?;
                        write!(f, " <-> ")?;
                        go(b, p + 1, f)?;
                    }
                }
                if need_paren {
                    write!(f, ")")?;
                }
                Ok(())
            }
        go(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_simplify_trivia() {
        assert_eq!(Term::and([Term::True, Term::True]), Term::True);
        assert_eq!(Term::and([Term::True, Term::False]), Term::False);
        assert_eq!(Term::or([Term::False, Term::False]), Term::False);
        assert_eq!(Term::or([Term::False, Term::True]), Term::True);
        assert_eq!(Term::True.not(), Term::False);
        let a = Term::bool_var("a");
        assert_eq!(a.clone().not().not(), a);
    }

    #[test]
    fn and_flattens_nested() {
        let a = Term::bool_var("a");
        let b = Term::bool_var("b");
        let c = Term::bool_var("c");
        let t = Term::and([Term::and([a.clone(), b.clone()]), c.clone()]);
        assert_eq!(t, Term::And(vec![a, b, c]));
    }

    #[test]
    fn vars_are_deduplicated_with_sorts() {
        let t = Term::and([
            Term::not_null("s"),
            Term::bool_var("s.isClosing").not(),
            Term::int_cmp_c("s.ttl", CmpOp::Gt, 0),
            Term::int_cmp_c("s.ttl", CmpOp::Lt, 100),
        ]);
        let vars = t.vars();
        assert_eq!(
            vars,
            vec![
                ("s".to_string(), Sort::Ref),
                ("s.isClosing".to_string(), Sort::Bool),
                ("s.ttl".to_string(), Sort::Int),
            ]
        );
    }

    #[test]
    fn display_matches_paper_style() {
        let t = Term::and([
            Term::not_null("s"),
            Term::bool_var("s.isClosing").not(),
            Term::int_cmp_c("s.ttl", CmpOp::Gt, 0),
        ]);
        assert_eq!(t.to_string(), "s != null && !s.isClosing && s.ttl > 0");
    }

    #[test]
    fn display_negated_cmp_flips_operator() {
        let t = Term::int_cmp_c("x", CmpOp::Le, 3).not();
        assert_eq!(t.to_string(), "x > 3");
    }

    #[test]
    fn rename_vars_rewrites_every_occurrence() {
        let t = Term::and([Term::not_null("p"), Term::int_cmp_v("p.ttl", CmpOp::Lt, "q.ttl")]);
        let r = t.rename_vars(&|v| v.replace('p', "session"));
        assert_eq!(r.to_string(), "session != null && session.ttl < q.ttl");
    }

    #[test]
    fn size_counts_nodes() {
        let t = Term::and([Term::bool_var("a"), Term::bool_var("b")]);
        assert_eq!(t.size(), 3);
    }

    #[test]
    fn atoms_deduplicated() {
        let a = Term::bool_var("a");
        let t = Term::or([a.clone(), Term::and([a.clone(), Term::bool_var("b")])]);
        assert_eq!(t.atoms().len(), 2);
    }
}
