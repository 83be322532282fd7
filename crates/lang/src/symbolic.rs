//! Syntactic derivation of symbolic guard terms.
//!
//! The concolic engine records, for every executed branch, the guard as a
//! [`lisa_smt::Term`] over *name paths* — `s`, `s.isClosing`,
//! `req.session.ttl` — exactly the vocabulary low-level semantics are
//! written in. The derivation is purely syntactic:
//!
//! - a bare path in boolean position becomes a boolean variable,
//! - comparisons between a path and a literal become theory atoms,
//! - `path == null` becomes a reference atom,
//! - `path op path` becomes an integer atom for orderings; equality
//!   defaults to integer equality (ref-typed comparisons in the corpus
//!   always compare against `null`),
//! - any sub-expression that is not path-shaped (arithmetic on calls,
//!   method results, …) becomes a fresh *opaque* boolean variable named
//!   `$opaque@<offset>`. Opaque variables are unconstrained, which biases
//!   the violation check toward reporting — the same "missing check counts
//!   against you" direction the paper chooses.

use crate::ast::{BinOp, Expr, ExprKind, UnOp};
use lisa_smt::term::{Atom, CmpOp, IntOperand, Term};

/// Extract the dotted name path of an expression (`s`, `s.f.g`), if any.
pub fn expr_path(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Var(v) => Some(v.to_string()),
        ExprKind::Field(obj, field) => Some(format!("{}.{}", expr_path(obj)?, field)),
        _ => None,
    }
}

fn opaque(e: &Expr) -> Term {
    Term::bool_var(format!("$opaque@{}", e.span.lo))
}

fn cmp_of(op: BinOp) -> Option<CmpOp> {
    Some(match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        _ => return None,
    })
}

/// Derive the symbolic term for a boolean guard expression.
pub fn guard_term(e: &Expr) -> Term {
    match &e.kind {
        ExprKind::Bool(b) => {
            if *b {
                Term::True
            } else {
                Term::False
            }
        }
        ExprKind::Var(_) | ExprKind::Field(_, _) => match expr_path(e) {
            Some(p) => Term::bool_var(p),
            None => opaque(e),
        },
        ExprKind::Unary(UnOp::Not, inner) => guard_term(inner).not(),
        ExprKind::Binary(BinOp::And, l, r) => Term::and([guard_term(l), guard_term(r)]),
        ExprKind::Binary(BinOp::Or, l, r) => Term::or([guard_term(l), guard_term(r)]),
        ExprKind::Binary(op, l, r) => match cmp_of(*op) {
            Some(cmp) => cmp_term(cmp, l, r).unwrap_or_else(|| opaque(e)),
            None => opaque(e),
        },
        _ => opaque(e),
    }
}

/// Derive an atom for `l cmp r`, if both sides are path/literal shaped.
fn cmp_term(cmp: CmpOp, l: &Expr, r: &Expr) -> Option<Term> {
    use ExprKind::*;
    let lit_int = |e: &Expr| match &e.kind {
        Int(v) => Some(*v),
        Unary(UnOp::Neg, inner) => match &inner.kind {
            Int(v) => Some(-v),
            _ => None,
        },
        _ => None,
    };
    // path vs null
    if matches!(r.kind, Null) {
        let p = expr_path(l)?;
        let eq = Term::is_null(p);
        return match cmp {
            CmpOp::Eq => Some(eq),
            CmpOp::Ne => Some(eq.not()),
            _ => None,
        };
    }
    if matches!(l.kind, Null) {
        let p = expr_path(r)?;
        let eq = Term::is_null(p);
        return match cmp {
            CmpOp::Eq => Some(eq),
            CmpOp::Ne => Some(eq.not()),
            _ => None,
        };
    }
    // path vs bool literal
    if let Bool(b) = &r.kind {
        let p = expr_path(l)?;
        let base = Term::bool_var(p);
        return match cmp {
            CmpOp::Eq => Some(if *b { base } else { base.not() }),
            CmpOp::Ne => Some(if *b { base.not() } else { base }),
            _ => None,
        };
    }
    if let Bool(b) = &l.kind {
        let p = expr_path(r)?;
        let base = Term::bool_var(p);
        return match cmp {
            CmpOp::Eq => Some(if *b { base } else { base.not() }),
            CmpOp::Ne => Some(if *b { base.not() } else { base }),
            _ => None,
        };
    }
    // path vs str literal
    if let Str(s) = &r.kind {
        let p = expr_path(l)?;
        let eq = Term::str_eq_lit(p, s.as_str());
        return match cmp {
            CmpOp::Eq => Some(eq),
            CmpOp::Ne => Some(eq.not()),
            _ => None,
        };
    }
    if let Str(s) = &l.kind {
        let p = expr_path(r)?;
        let eq = Term::str_eq_lit(p, s.as_str());
        return match cmp {
            CmpOp::Eq => Some(eq),
            CmpOp::Ne => Some(eq.not()),
            _ => None,
        };
    }
    // path vs int literal
    if let Some(c) = lit_int(r) {
        let p = expr_path(l)?;
        return Some(Term::int_cmp_c(p, cmp, c));
    }
    if let Some(c) = lit_int(l) {
        let p = expr_path(r)?;
        return Some(Term::int_cmp_c(p, cmp.flip(), c));
    }
    // path vs path: integer comparison by default.
    let (lp, rp) = (expr_path(l)?, expr_path(r)?);
    Some(Term::Atom(Atom::IntCmp(IntOperand::Var(lp), cmp, IntOperand::Var(rp))))
}

/// The root variable of a dotted path (`s.ttl` → `s`).
pub fn path_root(path: &str) -> &str {
    path.split('.').next().unwrap_or(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn guard_of(cond: &str) -> Term {
        let src = format!("fn f() -> bool {{ return {cond}; }}");
        let m = parse_module("t", &src).expect("parse");
        let f = m.function("f").expect("f");
        let crate::ast::StmtKind::Return(Some(e)) = &f.body[0].kind else { panic!() };
        guard_term(e)
    }

    #[test]
    fn null_check_guard() {
        assert_eq!(guard_of("s == null").to_string(), "s == null");
        assert_eq!(guard_of("s != null").to_string(), "s != null");
    }

    #[test]
    fn field_bool_guard() {
        assert_eq!(guard_of("s.closing").to_string(), "s.closing");
        assert_eq!(guard_of("s.closing == false").to_string(), "!s.closing");
        assert_eq!(guard_of("!s.closing").to_string(), "!s.closing");
    }

    #[test]
    fn the_paper_guard() {
        let t = guard_of("s == null || s.closing");
        assert_eq!(t.to_string(), "s == null || s.closing");
    }

    #[test]
    fn int_comparisons_both_orders() {
        assert_eq!(guard_of("s.ttl > 0").to_string(), "s.ttl > 0");
        assert_eq!(guard_of("0 < s.ttl").to_string(), "s.ttl > 0");
        assert_eq!(guard_of("a.ts >= b.ts").to_string(), "a.ts >= b.ts");
    }

    #[test]
    fn negative_literal() {
        assert_eq!(guard_of("delta > -3").to_string(), "delta > -3");
    }

    #[test]
    fn string_state_guard() {
        assert_eq!(guard_of("s.state == \"OPEN\"").to_string(), "s.state == \"OPEN\"");
        assert_eq!(guard_of("s.state != \"OPEN\"").to_string(), "s.state != \"OPEN\"");
    }

    #[test]
    fn opaque_for_calls() {
        let t = guard_of("check(s) && s.ttl > 0");
        let s = t.to_string();
        assert!(s.contains("$opaque@"), "{s}");
        assert!(s.contains("s.ttl > 0"), "{s}");
    }

    #[test]
    fn opaque_for_arithmetic_on_calls() {
        let t = guard_of("f(x) + 1 > 2");
        assert!(t.to_string().starts_with("$opaque@"));
    }

    #[test]
    fn path_root_splits() {
        assert_eq!(path_root("s.ttl"), "s");
        assert_eq!(path_root("x"), "x");
    }

    #[test]
    fn nested_field_paths() {
        assert_eq!(guard_of("req.session.ttl > 0").to_string(), "req.session.ttl > 0");
    }
}
