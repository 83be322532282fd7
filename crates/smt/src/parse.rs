//! Parser for textual conditions.
//!
//! The oracle (and developers, per the paper's §5 interface question)
//! writes conditions in the Java-flavoured surface syntax used throughout
//! the paper, e.g.:
//!
//! ```text
//! s != null && s.isClosing == false && s.ttl > 0
//! ```
//!
//! Dotted paths (`s.isClosing`) and no-argument call spellings
//! (`session.isClosing()`) are flattened to single variables. Sorts are
//! inferred from the comparison partner (`null` ⇒ Ref, integer ⇒ Int,
//! `true`/`false` ⇒ Bool, string literal ⇒ Str, bare path in boolean
//! position ⇒ Bool); `path == path` defaults to Int unless a hint says
//! otherwise.

use std::collections::HashMap;
use std::fmt;

use crate::term::{Atom, CmpOp, IntOperand, RefOperand, Sort, StrOperand, Term};

/// Parse error with byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset == usize::MAX {
            write!(f, "condition parse error at end of input: {}", self.message)
        } else {
            write!(f, "condition parse error at byte {}: {}", self.offset, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    True,
    False,
    Null,
    AndAnd,
    OrOr,
    Bang,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    LParen,
    RParen,
    Arrow,
    DArrow,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let bytes = src.as_bytes();
    // Conditions run at more than two bytes a token, so one reservation
    // holds every token and the vector never grows while lexing.
    let mut toks = Vec::with_capacity(src.len() / 2 + 1);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                toks.push((Tok::LParen, i));
                i += 1;
            }
            ')' => {
                toks.push((Tok::RParen, i));
                i += 1;
            }
            '&' if bytes.get(i + 1) == Some(&b'&') => {
                toks.push((Tok::AndAnd, i));
                i += 2;
            }
            '|' if bytes.get(i + 1) == Some(&b'|') => {
                toks.push((Tok::OrOr, i));
                i += 2;
            }
            '=' if bytes.get(i + 1) == Some(&b'=') => {
                toks.push((Tok::EqEq, i));
                i += 2;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                toks.push((Tok::NotEq, i));
                i += 2;
            }
            '!' => {
                toks.push((Tok::Bang, i));
                i += 1;
            }
            '<' if bytes.get(i + 1) == Some(&b'-') && bytes.get(i + 2) == Some(&b'>') => {
                toks.push((Tok::DArrow, i));
                i += 3;
            }
            '-' if bytes.get(i + 1) == Some(&b'>') => {
                toks.push((Tok::Arrow, i));
                i += 2;
            }
            '<' if bytes.get(i + 1) == Some(&b'=') => {
                toks.push((Tok::Le, i));
                i += 2;
            }
            '<' => {
                toks.push((Tok::Lt, i));
                i += 1;
            }
            '>' if bytes.get(i + 1) == Some(&b'=') => {
                toks.push((Tok::Ge, i));
                i += 2;
            }
            '>' => {
                toks.push((Tok::Gt, i));
                i += 1;
            }
            '"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            match bytes.get(i + 1) {
                                Some(b'n') => s.push('\n'),
                                Some(b't') => s.push('\t'),
                                Some(&c) => s.push(c as char),
                                None => {
                                    return Err(ParseError {
                                        offset: i,
                                        message: "unterminated escape".into(),
                                    })
                                }
                            }
                            i += 2;
                        }
                        Some(&c) => {
                            s.push(c as char);
                            i += 1;
                        }
                        None => {
                            return Err(ParseError {
                                offset: start,
                                message: "unterminated string literal".into(),
                            })
                        }
                    }
                }
                toks.push((Tok::Str(s), start));
            }
            '-' | '0'..='9' => {
                let start = i;
                if c == '-' {
                    i += 1;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let value: i64 = text.parse().map_err(|_| ParseError {
                    offset: start,
                    message: format!("bad integer literal {text:?}"),
                })?;
                toks.push((Tok::Int(value), start));
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &src[start..i];
                // Allow `path()` call spelling: swallow an immediately
                // following empty parens pair into the variable name.
                if bytes.get(i) == Some(&b'(') && bytes.get(i + 1) == Some(&b')') {
                    i += 2;
                    // keep the flattened name without parens
                }
                // Trailing dot is a lex error (e.g. "s.").
                if word.ends_with('.') {
                    return Err(ParseError {
                        offset: start,
                        message: format!("dangling '.' in path {word:?}"),
                    });
                }
                let tok = match word {
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "null" => Tok::Null,
                    _ => {
                        // Normalize Java-style negated getters later; here
                        // just keep the path.
                        Tok::Ident(word.to_string())
                    }
                };
                toks.push((tok, start));
            }
            other => {
                return Err(ParseError {
                    offset: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(toks)
}

/// Deepest nesting of parentheses, `!` and `->` right operands a
/// condition may have. The parser recurses once per level, as does every
/// later pass over the term, so an unbounded condition could overflow
/// the stack; real conditions nest a handful of levels.
const MAX_COND_DEPTH: usize = 128;

struct Parser<'a> {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    hints: &'a HashMap<String, Sort>,
    /// Nesting levels currently open.
    depth: usize,
}

/// Human-readable token name for error messages.
fn describe(tok: Option<&Tok>) -> String {
    match tok {
        Some(t) => format!("{t:?}"),
        None => "end of input".to_string(),
    }
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks.get(self.pos).map(|&(_, o)| o).unwrap_or(usize::MAX)
    }

    /// Consume the current token, moving it out: the parser never looks
    /// back at a consumed token, only at its offset.
    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get_mut(self.pos).map(|(t, _)| std::mem::replace(t, Tok::Null));
        self.pos += 1;
        t
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        if self.peek() == Some(&tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {tok:?}, found {}", describe(self.peek()))))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError { offset: self.offset(), message }
    }

    /// Run `parse` one nesting level deeper, or fail past
    /// [`MAX_COND_DEPTH`].
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Term, ParseError>,
    ) -> Result<Term, ParseError> {
        if self.depth == MAX_COND_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_COND_DEPTH}")));
        }
        self.depth += 1;
        let term = parse(self);
        self.depth -= 1;
        term
    }

    fn parse_iff(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.parse_implies()?;
        while self.peek() == Some(&Tok::DArrow) {
            self.pos += 1;
            let rhs = self.parse_implies()?;
            lhs = lhs.iff(rhs);
        }
        Ok(lhs)
    }

    fn parse_implies(&mut self) -> Result<Term, ParseError> {
        let lhs = self.parse_or()?;
        if self.peek() == Some(&Tok::Arrow) {
            self.pos += 1;
            let rhs = self.nested(Self::parse_implies)?; // right-assoc
            Ok(lhs.implies(rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<Term, ParseError> {
        let first = self.parse_and()?;
        if self.peek() != Some(&Tok::OrOr) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.peek() == Some(&Tok::OrOr) {
            self.pos += 1;
            parts.push(self.parse_and()?);
        }
        Ok(Term::or(parts))
    }

    fn parse_and(&mut self) -> Result<Term, ParseError> {
        let first = self.parse_unary()?;
        if self.peek() != Some(&Tok::AndAnd) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            parts.push(self.parse_unary()?);
        }
        Ok(Term::and(parts))
    }

    fn parse_unary(&mut self) -> Result<Term, ParseError> {
        if self.peek() == Some(&Tok::Bang) {
            self.pos += 1;
            Ok(self.nested(Self::parse_unary)?.not())
        } else {
            self.parse_atom()
        }
    }

    fn parse_atom(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some(Tok::LParen) => {
                self.pos += 1;
                let inner = self.nested(Self::parse_iff)?;
                self.expect(Tok::RParen)?;
                Ok(inner)
            }
            Some(Tok::True) => {
                self.pos += 1;
                Ok(Term::True)
            }
            Some(Tok::False) => {
                self.pos += 1;
                Ok(Term::False)
            }
            _ => self.parse_comparison(),
        }
    }

    fn parse_comparison(&mut self) -> Result<Term, ParseError> {
        #[derive(Debug, Clone)]
        enum Operand {
            Path(String),
            Int(i64),
            Str(String),
            Null,
        }
        let operand = |p: &mut Self| -> Result<Operand, ParseError> {
            match p.bump() {
                Some(Tok::Ident(s)) => Ok(Operand::Path(s)),
                Some(Tok::Int(v)) => Ok(Operand::Int(v)),
                Some(Tok::Str(s)) => Ok(Operand::Str(s)),
                Some(Tok::Null) => Ok(Operand::Null),
                Some(Tok::True) => Ok(Operand::Path("$true".into())),
                Some(Tok::False) => Ok(Operand::Path("$false".into())),
                other => Err(p.err(format!("expected operand, found {}", describe(other.as_ref())))),
            }
        };
        let lhs = operand(self)?;
        let op = match self.peek() {
            Some(Tok::EqEq) => Some(CmpOp::Eq),
            Some(Tok::NotEq) => Some(CmpOp::Ne),
            Some(Tok::Lt) => Some(CmpOp::Lt),
            Some(Tok::Le) => Some(CmpOp::Le),
            Some(Tok::Gt) => Some(CmpOp::Gt),
            Some(Tok::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        let Some(op) = op else {
            // Bare path in boolean position.
            return match lhs {
                Operand::Path(p) if p != "$true" && p != "$false" => Ok(Term::bool_var(p)),
                Operand::Path(p) => Ok(if p == "$true" { Term::True } else { Term::False }),
                other => Err(self.err(format!("{other:?} is not a boolean"))),
            };
        };
        self.pos += 1;
        // Bool literals on the RHS: `x == true`, `x != false`.
        if matches!(self.peek(), Some(Tok::True) | Some(Tok::False)) {
            let rhs_true = self.peek() == Some(&Tok::True);
            self.pos += 1;
            let Operand::Path(p) = lhs else {
                return Err(self.err("boolean literal compared to non-path".into()));
            };
            let base = Term::bool_var(p);
            let positive = rhs_true == (op == CmpOp::Eq);
            if op != CmpOp::Eq && op != CmpOp::Ne {
                return Err(self.err("booleans support only == and !=".into()));
            }
            return Ok(if positive { base } else { base.not() });
        }
        let rhs = operand(self)?;
        let term = match (&lhs, &rhs) {
            // null comparisons -> Ref sort
            (Operand::Null, Operand::Null) => match op {
                CmpOp::Eq => Term::True,
                CmpOp::Ne => Term::False,
                _ => return Err(self.err("null supports only == and !=".into())),
            },
            (Operand::Path(p), Operand::Null) | (Operand::Null, Operand::Path(p)) => {
                let eq = Term::is_null(p.clone());
                match op {
                    CmpOp::Eq => eq,
                    CmpOp::Ne => eq.not(),
                    _ => return Err(self.err("null supports only == and !=".into())),
                }
            }
            (Operand::Path(p), Operand::Int(c)) => Term::int_cmp_c(p.clone(), op, *c),
            (Operand::Int(c), Operand::Path(p)) => Term::int_cmp_c(p.clone(), op.flip(), *c),
            (Operand::Int(a), Operand::Int(b)) => {
                if op.eval(*a, *b) {
                    Term::True
                } else {
                    Term::False
                }
            }
            (Operand::Path(p), Operand::Str(s)) | (Operand::Str(s), Operand::Path(p)) => {
                let eq = Term::str_eq_lit(p.clone(), s.clone());
                match op {
                    CmpOp::Eq => eq,
                    CmpOp::Ne => eq.not(),
                    _ => return Err(self.err("strings support only == and !=".into())),
                }
            }
            (Operand::Str(a), Operand::Str(b)) => {
                let eq = a == b;
                let truth = match op {
                    CmpOp::Eq => eq,
                    CmpOp::Ne => !eq,
                    _ => return Err(self.err("strings support only == and !=".into())),
                };
                if truth {
                    Term::True
                } else {
                    Term::False
                }
            }
            (Operand::Path(a), Operand::Path(b)) => {
                // Sort from hints; default Int.
                let sort = self
                    .hints
                    .get(a)
                    .or_else(|| self.hints.get(b))
                    .copied()
                    .unwrap_or(Sort::Int);
                match sort {
                    Sort::Int => Term::Atom(Atom::IntCmp(
                        IntOperand::Var(a.clone()),
                        op,
                        IntOperand::Var(b.clone()),
                    )),
                    Sort::Ref => {
                        let eq = Term::Atom(Atom::RefEq(
                            RefOperand::Var(a.clone()),
                            RefOperand::Var(b.clone()),
                        ));
                        match op {
                            CmpOp::Eq => eq,
                            CmpOp::Ne => eq.not(),
                            _ => {
                                return Err(self.err("refs support only == and !=".into()));
                            }
                        }
                    }
                    Sort::Str => {
                        let eq = Term::Atom(Atom::StrEq(
                            StrOperand::Var(a.clone()),
                            StrOperand::Var(b.clone()),
                        ));
                        match op {
                            CmpOp::Eq => eq,
                            CmpOp::Ne => eq.not(),
                            _ => {
                                return Err(self.err("strings support only == and !=".into()));
                            }
                        }
                    }
                    Sort::Bool => {
                        let (ta, tb) = (Term::bool_var(a.clone()), Term::bool_var(b.clone()));
                        match op {
                            CmpOp::Eq => ta.iff(tb),
                            CmpOp::Ne => ta.iff(tb).not(),
                            _ => {
                                return Err(self.err("bools support only == and !=".into()));
                            }
                        }
                    }
                }
            }
            (Operand::Null, _) | (_, Operand::Null) => {
                return Err(self.err("null compared to non-reference".into()))
            }
            (Operand::Int(_), Operand::Str(_)) | (Operand::Str(_), Operand::Int(_)) => {
                return Err(self.err("int compared to string".into()))
            }
        };
        Ok(term)
    }
}

/// Parse a condition with explicit sort hints for `path == path` atoms.
pub fn parse_cond_with(src: &str, hints: &HashMap<String, Sort>) -> Result<Term, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, hints, depth: 0 };
    if p.toks.is_empty() {
        return Ok(Term::True);
    }
    let term = p.parse_iff()?;
    if p.pos != p.toks.len() {
        return Err(p.err("trailing input after condition".into()));
    }
    Ok(term)
}

/// Parse a condition with default sort inference.
pub fn parse_cond(src: &str) -> Result<Term, ParseError> {
    parse_cond_with(src, &HashMap::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{equivalent, is_sat};

    #[test]
    fn parses_the_paper_rule() {
        let t = parse_cond("s != null && s.isClosing == false && s.ttl > 0").expect("parse");
        let direct = Term::and([
            Term::not_null("s"),
            Term::bool_var("s.isClosing").not(),
            Term::int_cmp_c("s.ttl", CmpOp::Gt, 0),
        ]);
        assert!(equivalent(&t, &direct));
    }

    #[test]
    fn parses_complement_form() {
        let t = parse_cond("s == null || s.isClosing == true || s.ttl <= 0").expect("parse");
        let direct = parse_cond("s != null && s.isClosing == false && s.ttl > 0")
            .expect("parse")
            .not();
        assert!(equivalent(&t, &direct));
    }

    #[test]
    fn call_spelling_is_flattened() {
        let t = parse_cond("session.isClosing() == false").expect("parse");
        assert_eq!(t, Term::bool_var("session.isClosing").not());
    }

    #[test]
    fn bare_path_is_boolean() {
        let t = parse_cond("handle.isOpen && x > 2").expect("parse");
        assert_eq!(
            t,
            Term::and([Term::bool_var("handle.isOpen"), Term::int_cmp_c("x", CmpOp::Gt, 2)])
        );
    }

    #[test]
    fn precedence_and_parens() {
        let a = parse_cond("a || b && c").expect("parse");
        let b = parse_cond("a || (b && c)").expect("parse");
        assert_eq!(a, b);
        let c = parse_cond("(a || b) && c").expect("parse");
        assert_ne!(a, c);
    }

    #[test]
    fn negation_binds_tight() {
        let t = parse_cond("!a && b").expect("parse");
        assert_eq!(t, Term::and([Term::bool_var("a").not(), Term::bool_var("b")]));
    }

    #[test]
    fn implication_and_iff() {
        let t = parse_cond("a -> b <-> c").expect("parse");
        // (a -> b) <-> c
        assert_eq!(
            t,
            Term::bool_var("a").implies(Term::bool_var("b")).iff(Term::bool_var("c"))
        );
    }

    #[test]
    fn reversed_constant_comparison() {
        let a = parse_cond("0 < x").expect("parse");
        let b = parse_cond("x > 0").expect("parse");
        assert!(equivalent(&a, &b));
    }

    #[test]
    fn string_literals() {
        let t = parse_cond("state == \"OPEN\"").expect("parse");
        assert_eq!(t, Term::str_eq_lit("state", "OPEN"));
        assert!(is_sat(&t));
    }

    #[test]
    fn path_path_with_ref_hint() {
        let mut hints = HashMap::new();
        hints.insert("owner".to_string(), Sort::Ref);
        let t = parse_cond_with("owner == leader", &hints).expect("parse");
        assert_eq!(t, Term::ref_eq("owner", "leader"));
    }

    #[test]
    fn path_path_defaults_to_int() {
        let t = parse_cond("reportTime >= lastSeen").expect("parse");
        assert_eq!(t, Term::int_cmp_v("reportTime", CmpOp::Ge, "lastSeen"));
    }

    #[test]
    fn negative_integer_literal() {
        let t = parse_cond("delta > -5").expect("parse");
        assert_eq!(t, Term::int_cmp_c("delta", CmpOp::Gt, -5));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_cond("x >").is_err());
        assert!(parse_cond("&& x").is_err());
        assert!(parse_cond("x == ?").is_err());
        assert!(parse_cond("(a").is_err());
        assert!(parse_cond("a b").is_err());
    }

    #[test]
    fn error_messages_carry_offsets() {
        let e = parse_cond("abc @").expect_err("lex error");
        assert_eq!(e.offset, 4);
    }

    #[test]
    fn nesting_is_bounded() {
        let parens = |n: usize| format!("{}x > 0{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_cond(&parens(MAX_COND_DEPTH)).is_ok());
        assert!(parse_cond(&parens(MAX_COND_DEPTH + 1)).is_err());
        assert!(parse_cond(&format!("{}b", "!".repeat(MAX_COND_DEPTH + 1))).is_err());
        assert!(parse_cond(&vec!["b"; MAX_COND_DEPTH + 2].join(" -> ")).is_err());
        // Deep input on a small stack is an error, not a stack overflow.
        let deep = parens(10_000);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse_cond(&deep).map(|_| ()))
            .expect("spawn")
            .join()
            .expect("parse must not overflow the stack");
        let err = parsed.unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn empty_condition_is_true() {
        assert_eq!(parse_cond("").expect("parse"), Term::True);
        assert_eq!(parse_cond("   ").expect("parse"), Term::True);
    }

    #[test]
    fn null_ordering_rejected() {
        assert!(parse_cond("s < null").is_err());
    }
}
