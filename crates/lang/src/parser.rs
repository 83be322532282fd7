//! Recursive-descent parser for SIR.

use crate::ast::*;
use crate::name::{Name, MAX_TEXT_LEN};
use crate::span::{LineMap, Span};
use crate::token::{lex, Tok};
use std::borrow::Cow;
use std::fmt;

/// A parse error with resolved location.
#[derive(Debug, Clone)]
pub struct ParseError {
    pub message: String,
    pub line: u32,
    pub col: u32,
    pub source: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}", self.source, self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    /// An error at byte `offset` of `src`. The line map is built here,
    /// on the error path only: a successful parse never needs one.
    fn at(name: &str, src: &str, offset: usize, message: String) -> ParseError {
        let loc = LineMap::new(name, src).loc(offset);
        ParseError { message, line: loc.line, col: loc.col, source: loc.source }
    }
}

/// Parse one module from source text. The module copies `src` once,
/// into the text its [`Name`]s share.
pub fn parse_module(name: &str, src: &str) -> Result<Module, ParseError> {
    if src.len() > MAX_TEXT_LEN {
        let message = format!("source longer than {MAX_TEXT_LEN} bytes");
        return Err(ParseError::at(name, src, 0, message));
    }
    let toks = lex(src).map_err(|e| ParseError::at(name, src, e.offset, e.message))?;
    let source = Name::from(src);
    let mut p = Parser { toks, pos: 0, next_stmt: 0, name, source: source.clone(), depth: 0 };
    let mut module = Module {
        name: name.to_string(),
        structs: Vec::new(),
        globals: Vec::new(),
        functions: Vec::new(),
        source,
    };
    while p.peek() != &Tok::Eof {
        match p.peek() {
            Tok::Struct => module.structs.push(p.parse_struct()?),
            Tok::Global => module.globals.push(p.parse_global()?),
            Tok::Fn => module.functions.push(p.parse_fn()?),
            other => {
                return Err(p.error(format!("expected item (struct/global/fn), found {other}")))
            }
        }
    }
    Ok(module)
}

/// Deepest nesting of blocks, `else if` links, expressions, unary
/// operators and type arguments a module may have. The parser recurses
/// through about ten calls per expression level, as do the passes that
/// walk the tree after it, so an unbounded input could overflow the
/// stack; 64 levels fit a 2 MiB thread stack even in a debug build, and
/// real code nests far less.
const MAX_NESTING: usize = 64;

/// Binding strength of `||`, the loosest binary operator.
const OR: u8 = 1;
/// Binding strength of the comparisons, which do not chain.
const CMP: u8 = 3;

/// The binary operator a token starts, with its binding strength.
fn binary_op(tok: &Tok) -> Option<(BinOp, u8)> {
    Some(match tok {
        Tok::OrOr => (BinOp::Or, OR),
        Tok::AndAnd => (BinOp::And, 2),
        Tok::EqEq => (BinOp::Eq, CMP),
        Tok::NotEq => (BinOp::Ne, CMP),
        Tok::Lt => (BinOp::Lt, CMP),
        Tok::Le => (BinOp::Le, CMP),
        Tok::Gt => (BinOp::Gt, CMP),
        Tok::Ge => (BinOp::Ge, CMP),
        Tok::Plus => (BinOp::Add, 4),
        Tok::Minus => (BinOp::Sub, 4),
        Tok::Star => (BinOp::Mul, 5),
        Tok::Slash => (BinOp::Div, 5),
        Tok::Percent => (BinOp::Rem, 5),
        _ => return None,
    })
}

struct Parser<'a> {
    toks: Vec<(Tok<'a>, Span)>,
    pos: usize,
    next_stmt: u32,
    name: &'a str,
    /// The source text, which the tree's names slice.
    source: Name,
    /// Nesting levels currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok<'a> {
        &self.toks[self.pos].0
    }

    fn span(&self) -> Span {
        self.toks[self.pos].1
    }

    /// Consume the current token, moving it out: the parser never looks
    /// back at a consumed token, only at its span. The trailing `Eof` is
    /// never consumed, so `peek` stays valid at the end of input.
    fn bump(&mut self) -> Tok<'a> {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
            std::mem::replace(&mut self.toks[self.pos - 1].0, Tok::Eof)
        } else {
            Tok::Eof
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError::at(self.name, &self.source, self.span().lo, message)
    }

    fn expect(&mut self, tok: Tok<'a>) -> Result<Span, ParseError> {
        if self.peek() == &tok {
            let s = self.span();
            self.bump();
            Ok(s)
        } else {
            Err(self.error(format!("expected {tok}, found {}", self.peek())))
        }
    }

    /// Consume an identifier: a name for its span of the source.
    fn ident(&mut self) -> Result<Name, ParseError> {
        match self.peek() {
            Tok::Ident(_) => {
                let span = self.span();
                self.bump();
                Ok(self.source.slice(span.lo..span.hi))
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    /// The name of the string literal just consumed, whose text the
    /// lexer gave as `text`: the source between its quotes, or the
    /// unescaped text of a literal with escapes.
    fn literal(&self, text: Cow<'_, str>) -> Name {
        match text {
            Cow::Borrowed(_) => {
                let span = self.toks[self.pos - 1].1;
                self.source.slice(span.lo + 1..span.hi - 1)
            }
            Cow::Owned(text) => Name::from(text),
        }
    }

    /// Run `parse` one nesting level deeper, or fail past
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING}")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn fresh_stmt_id(&mut self) -> StmtId {
        let id = StmtId(self.next_stmt);
        self.next_stmt += 1;
        id
    }

    // ---- items ----------------------------------------------------------

    fn parse_struct(&mut self) -> Result<StructDecl, ParseError> {
        let start = self.expect(Tok::Struct)?;
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != &Tok::RBrace {
            let fname = self.ident()?;
            self.expect(Tok::Colon)?;
            let ty = self.parse_type()?;
            fields.push((fname, ty));
            if self.peek() == &Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        let end = self.expect(Tok::RBrace)?;
        Ok(StructDecl { name, fields, span: start.to(end) })
    }

    fn parse_global(&mut self) -> Result<GlobalDecl, ParseError> {
        let start = self.expect(Tok::Global)?;
        let name = self.ident()?;
        self.expect(Tok::Colon)?;
        let ty = self.parse_type()?;
        let end = self.expect(Tok::Semi)?;
        Ok(GlobalDecl { name, ty, span: start.to(end) })
    }

    fn parse_fn(&mut self) -> Result<FnDecl, ParseError> {
        let start = self.expect(Tok::Fn)?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        while self.peek() != &Tok::RParen {
            let pname = self.ident()?;
            self.expect(Tok::Colon)?;
            let ty = self.parse_type()?;
            params.push((pname, ty));
            if self.peek() == &Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        let ret = if self.peek() == &Tok::Arrow {
            self.bump();
            self.parse_type()?
        } else {
            Type::Unit
        };
        let (body, end) = self.parse_block()?;
        Ok(FnDecl { name, params, ret, body, span: start.to(end) })
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        match self.peek() {
            Tok::TyInt => {
                self.bump();
                Ok(Type::Int)
            }
            Tok::TyBool => {
                self.bump();
                Ok(Type::Bool)
            }
            Tok::TyStr => {
                self.bump();
                Ok(Type::Str)
            }
            Tok::TyMap => {
                self.bump();
                self.expect(Tok::Lt)?;
                let k = self.nested(Self::parse_type)?;
                self.expect(Tok::Comma)?;
                let v = self.nested(Self::parse_type)?;
                self.expect(Tok::Gt)?;
                Ok(Type::Map(Box::new(k), Box::new(v)))
            }
            Tok::TyList => {
                self.bump();
                self.expect(Tok::Lt)?;
                let t = self.nested(Self::parse_type)?;
                self.expect(Tok::Gt)?;
                Ok(Type::List(Box::new(t)))
            }
            Tok::Ident(_) => Ok(Type::Struct(self.ident()?)),
            other => Err(self.error(format!("expected type, found {other}"))),
        }
    }

    // ---- statements -----------------------------------------------------

    fn parse_block(&mut self) -> Result<(Vec<Stmt>, Span), ParseError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            stmts.push(self.nested(Self::parse_stmt)?);
        }
        let end = self.expect(Tok::RBrace)?;
        Ok((stmts, end))
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        let id = self.fresh_stmt_id();
        match self.peek() {
            Tok::Let => {
                self.bump();
                let name = self.ident()?;
                let ty = if self.peek() == &Tok::Colon {
                    self.bump();
                    Some(self.parse_type()?)
                } else {
                    None
                };
                self.expect(Tok::Assign)?;
                let init = self.parse_expr()?;
                let end = self.expect(Tok::Semi)?;
                Ok(Stmt { id, kind: StmtKind::Let { name, ty, init }, span: start.to(end) })
            }
            Tok::If => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                let (then_body, mut end) = self.parse_block()?;
                let mut else_body = Vec::new();
                if self.peek() == &Tok::Else {
                    self.bump();
                    if self.peek() == &Tok::If {
                        let nested = self.nested(Self::parse_stmt)?;
                        end = nested.span;
                        else_body.push(nested);
                    } else {
                        let (b, e) = self.parse_block()?;
                        else_body = b;
                        end = e;
                    }
                }
                Ok(Stmt {
                    id,
                    kind: StmtKind::If { cond, then_body, else_body },
                    span: start.to(end),
                })
            }
            Tok::While => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                let (body, end) = self.parse_block()?;
                Ok(Stmt { id, kind: StmtKind::While { cond, body }, span: start.to(end) })
            }
            Tok::For => {
                self.bump();
                let var = self.ident()?;
                self.expect(Tok::In)?;
                let iter = self.parse_expr()?;
                let (body, end) = self.parse_block()?;
                Ok(Stmt { id, kind: StmtKind::For { var, iter, body }, span: start.to(end) })
            }
            Tok::Return => {
                self.bump();
                if self.peek() == &Tok::Semi {
                    let end = self.expect(Tok::Semi)?;
                    Ok(Stmt { id, kind: StmtKind::Return(None), span: start.to(end) })
                } else {
                    let e = self.parse_expr()?;
                    let end = self.expect(Tok::Semi)?;
                    Ok(Stmt { id, kind: StmtKind::Return(Some(e)), span: start.to(end) })
                }
            }
            Tok::Assert => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.parse_expr()?;
                let message = if self.peek() == &Tok::Comma {
                    self.bump();
                    match self.bump() {
                        Tok::Str(s) => Some(self.literal(s)),
                        other => {
                            return Err(
                                self.error(format!("assert message must be a string, found {other}"))
                            )
                        }
                    }
                } else {
                    None
                };
                self.expect(Tok::RParen)?;
                let end = self.expect(Tok::Semi)?;
                Ok(Stmt { id, kind: StmtKind::Assert { cond, message }, span: start.to(end) })
            }
            Tok::Sync => {
                self.bump();
                self.expect(Tok::LParen)?;
                let lock = self.ident()?;
                self.expect(Tok::RParen)?;
                let (body, end) = self.parse_block()?;
                Ok(Stmt { id, kind: StmtKind::Sync { lock, body }, span: start.to(end) })
            }
            Tok::Throw => {
                self.bump();
                let msg = match self.bump() {
                    Tok::Str(s) => self.literal(s),
                    other => {
                        return Err(self.error(format!("throw takes a string, found {other}")))
                    }
                };
                let end = self.expect(Tok::Semi)?;
                Ok(Stmt { id, kind: StmtKind::Throw(msg), span: start.to(end) })
            }
            _ => {
                // Expression statement or assignment.
                let e = self.parse_expr()?;
                if self.peek() == &Tok::Assign {
                    self.bump();
                    let target = match e.kind {
                        ExprKind::Var(name) => LValue::Var(name),
                        ExprKind::Field(obj, field) => LValue::Field(obj, field),
                        _ => {
                            return Err(self.error(
                                "left-hand side of assignment must be a variable or field".into(),
                            ))
                        }
                    };
                    let value = self.parse_expr()?;
                    let end = self.expect(Tok::Semi)?;
                    Ok(Stmt { id, kind: StmtKind::Assign { target, value }, span: start.to(end) })
                } else {
                    let end = self.expect(Tok::Semi)?;
                    Ok(Stmt { id, kind: StmtKind::Expr(e), span: start.to(end) })
                }
            }
        }
    }

    // ---- expressions ----------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| p.parse_binary(OR))
    }

    /// A chain of binary operators that bind at least as tightly as
    /// `min`, by precedence climbing: `||` < `&&` < comparisons < `+ -`
    /// < `* / %`, each left-associative, except that comparisons do not
    /// chain. After a comparison, a second one is left unconsumed, and so
    /// is any operator tighter than the last one this level took (only a
    /// comparison a deeper level refused can be), which ends the
    /// expression there.
    fn parse_binary(&mut self, min: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        let mut last = u8::MAX;
        while let Some((op, prec)) = binary_op(self.peek()) {
            if prec < min || prec > last || (prec == last && prec == CMP) {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr { kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span };
            last = prec;
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        match self.peek() {
            Tok::Bang => {
                self.bump();
                let e = self.nested(Self::parse_unary)?;
                let span = start.to(e.span);
                Ok(Expr { kind: ExprKind::Unary(UnOp::Not, Box::new(e)), span })
            }
            Tok::Minus => {
                self.bump();
                let e = self.nested(Self::parse_unary)?;
                let span = start.to(e.span);
                Ok(Expr { kind: ExprKind::Unary(UnOp::Neg, Box::new(e)), span })
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let name = self.ident()?;
                    if self.peek() == &Tok::LParen {
                        let args = self.parse_args()?;
                        let span = e.span.to(self.toks[self.pos - 1].1);
                        e = Expr {
                            kind: ExprKind::MethodCall(Box::new(e), name, args),
                            span,
                        };
                    } else {
                        let span = e.span.to(self.toks[self.pos - 1].1);
                        e = Expr { kind: ExprKind::Field(Box::new(e), name), span };
                    }
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    let end = self.expect(Tok::RBracket)?;
                    let span = e.span.to(end);
                    e = Expr { kind: ExprKind::Index(Box::new(e), Box::new(idx)), span };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        while self.peek() != &Tok::RParen {
            args.push(self.parse_expr()?);
            if self.peek() == &Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        Ok(args)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        match self.peek() {
            &Tok::Int(v) => {
                self.bump();
                Ok(Expr { kind: ExprKind::Int(v), span: start })
            }
            Tok::Str(_) => match self.bump() {
                Tok::Str(s) => Ok(Expr { kind: ExprKind::Str(self.literal(s)), span: start }),
                _ => unreachable!("peeked a string"),
            },
            Tok::True => {
                self.bump();
                Ok(Expr { kind: ExprKind::Bool(true), span: start })
            }
            Tok::False => {
                self.bump();
                Ok(Expr { kind: ExprKind::Bool(false), span: start })
            }
            Tok::Null => {
                self.bump();
                Ok(Expr { kind: ExprKind::Null, span: start })
            }
            Tok::New => {
                self.bump();
                let name = self.ident()?;
                self.expect(Tok::LBrace)?;
                let mut fields = Vec::new();
                while self.peek() != &Tok::RBrace {
                    let fname = self.ident()?;
                    self.expect(Tok::Colon)?;
                    let value = self.parse_expr()?;
                    fields.push((fname, value));
                    if self.peek() == &Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let end = self.expect(Tok::RBrace)?;
                Ok(Expr { kind: ExprKind::New(name, fields), span: start.to(end) })
            }
            Tok::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(_) => {
                let name = self.ident()?;
                if self.peek() == &Tok::LParen {
                    let args = self.parse_args()?;
                    let span = start.to(self.toks[self.pos - 1].1);
                    Ok(Expr { kind: ExprKind::Call(name, args), span })
                } else {
                    Ok(Expr { kind: ExprKind::Var(name), span: start })
                }
            }
            other => Err(self.error(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Module {
        parse_module("test.sir", src).expect("parse")
    }

    #[test]
    fn parses_struct_global_fn() {
        let m = parse(
            "struct Session { id: int, closing: bool }\n\
             global sessions: map<int, Session>;\n\
             fn get(sid: int) -> Session { return sessions.get(sid); }",
        );
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.globals.len(), 1);
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].ret, Type::Struct("Session".into()));
    }

    #[test]
    fn parses_zookeeper_style_guard() {
        let m = parse(
            "struct Session { id: int, closing: bool, ttl: int }\n\
             global sessions: map<int, Session>;\n\
             fn touch_session(sid: int) -> bool {\n\
                 let s: Session = sessions.get(sid);\n\
                 if (s == null || s.closing) { return false; }\n\
                 s.ttl = 30;\n\
                 return true;\n\
             }",
        );
        let f = m.function("touch_session").expect("fn");
        assert_eq!(f.body.len(), 4);
        assert!(matches!(f.body[1].kind, StmtKind::If { .. }));
    }

    #[test]
    fn else_if_chains() {
        let m = parse(
            "fn f(x: int) -> int { if (x > 0) { return 1; } else if (x < 0) { return 2; } else { return 3; } }",
        );
        let f = m.function("f").expect("fn");
        let StmtKind::If { else_body, .. } = &f.body[0].kind else { panic!("if") };
        assert_eq!(else_body.len(), 1);
        assert!(matches!(else_body[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn sync_and_builtins() {
        let m = parse(
            "fn serialize() { sync (tree_lock) { blocking_io(\"write\"); } }",
        );
        let f = m.function("serialize").expect("fn");
        let StmtKind::Sync { lock, body } = &f.body[0].kind else { panic!("sync") };
        assert_eq!(lock, "tree_lock");
        assert!(matches!(&body[0].kind, StmtKind::Expr(e)
            if matches!(&e.kind, ExprKind::Call(n, _) if n == "blocking_io")));
    }

    #[test]
    fn precedence_mul_over_add_over_cmp_over_and() {
        let m = parse("fn f(a: int, b: int) -> bool { return a + b * 2 > 4 && a < 1; }");
        let f = m.function("f").expect("fn");
        let StmtKind::Return(Some(e)) = &f.body[0].kind else { panic!("return") };
        let ExprKind::Binary(BinOp::And, l, _) = &e.kind else { panic!("and at top: {e:?}") };
        let ExprKind::Binary(BinOp::Gt, add, _) = &l.kind else { panic!("gt") };
        assert!(matches!(&add.kind, ExprKind::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn stmt_ids_are_unique_and_dense() {
        let m = parse(
            "fn f() { let a = 1; if (a > 0) { a = 2; } else { a = 3; } while (a > 0) { a = a - 1; } }",
        );
        let mut ids = Vec::new();
        m.visit_stmts(&mut |_, s| ids.push(s.id.0));
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "ids must be unique");
        assert_eq!(m.stmt_count(), 6);
    }

    #[test]
    fn for_in_and_index() {
        let m = parse("fn f(xs: list<int>) -> int { let t = 0; for x in xs { t = t + x; } return xs[0] + t; }");
        let f = m.function("f").expect("fn");
        assert!(matches!(f.body[1].kind, StmtKind::For { .. }));
    }

    #[test]
    fn new_struct_literal() {
        let m = parse(
            "struct P { x: int, y: int } fn mk() -> P { return new P { x: 1, y: 2 }; }",
        );
        let f = m.function("mk").expect("fn");
        let StmtKind::Return(Some(e)) = &f.body[0].kind else { panic!("return") };
        assert!(matches!(&e.kind, ExprKind::New(n, fs) if n == "P" && fs.len() == 2));
    }

    #[test]
    fn assignment_targets() {
        let m = parse("struct S { v: int } fn f(s: S) { s.v = 3; let x = 0; x = s.v; }");
        let f = m.function("f").expect("fn");
        assert!(matches!(&f.body[0].kind, StmtKind::Assign { target: LValue::Field(_, _), .. }));
        assert!(matches!(&f.body[2].kind, StmtKind::Assign { target: LValue::Var(_), .. }));
    }

    #[test]
    fn error_has_location() {
        let err = parse_module("bad.sir", "fn f( {").expect_err("should fail");
        assert_eq!(err.source, "bad.sir");
        assert_eq!(err.line, 1);
        assert!(err.message.contains("expected"));
    }

    #[test]
    fn nesting_is_bounded() {
        let parens = |n: usize| {
            format!("fn f() -> int {{ return {}1{}; }}", "(".repeat(n), ")".repeat(n))
        };
        // The function body and the `return` take two levels.
        assert!(parse_module("t", &parens(MAX_NESTING - 2)).is_ok());
        for deep in [
            parens(MAX_NESTING),
            format!("fn f() {{ {}{} }}", "if (true) { ".repeat(MAX_NESTING), "}".repeat(MAX_NESTING)),
            format!("fn f() -> bool {{ return {}true; }}", "!".repeat(MAX_NESTING)),
            format!("global g: {}int{};", "list<".repeat(MAX_NESTING + 1), ">".repeat(MAX_NESTING + 1)),
        ] {
            let err = parse_module("t", &deep).expect_err("too deep");
            assert!(err.message.contains("nesting deeper than"), "{err}");
        }
        // Deep input on a small stack is an error, not a stack overflow.
        let deep = parens(10_000);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse_module("t", &deep).map(|_| ()))
            .expect("spawn")
            .join()
            .expect("parse must not overflow the stack");
        assert!(parsed.unwrap_err().message.contains("nesting deeper than"));
    }

    #[test]
    fn rejects_bad_lvalue() {
        assert!(parse_module("t", "fn f() { f() = 3; }").is_err());
    }

    #[test]
    fn throw_and_assert() {
        let m = parse("fn f(x: int) { assert(x > 0, \"positive\"); throw \"boom\"; }");
        let f = m.function("f").expect("fn");
        assert!(matches!(&f.body[0].kind, StmtKind::Assert { message: Some(m), .. } if m == "positive"));
        assert!(matches!(&f.body[1].kind, StmtKind::Throw(m) if m == "boom"));
    }
}
