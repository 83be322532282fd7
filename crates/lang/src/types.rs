//! Static type checker for SIR programs.
//!
//! Checks the whole [`Program`]: every function body, expression, struct
//! literal, builtin call, and method call. `null` is assignable to any
//! struct-reference type; maps and lists are invariant in their element
//! types; orderings apply only to `int`.

use std::borrow::Cow;
use std::fmt;

use crate::ast::*;
use crate::program::Program;
use crate::span::{LineMap, Span};

/// A type error with location.
#[derive(Debug, Clone)]
pub struct TypeError {
    pub message: String,
    pub source: String,
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}", self.source, self.line, self.col, self.message)
    }
}

impl std::error::Error for TypeError {}

/// Inferred type of an expression: a concrete type, or the type of the
/// `null` literal (assignable to any struct reference). A type written
/// in the program is borrowed from it; only types the checker builds
/// itself (scalars, `keys()`/`values()` lists, `new` structs) are owned.
#[derive(Debug, Clone, PartialEq)]
enum Ty<'a> {
    T(Cow<'a, Type>),
    Null,
}

impl<'a> Ty<'a> {
    fn owned(t: Type) -> Ty<'a> {
        Ty::T(Cow::Owned(t))
    }

    fn is(&self, t: &Type) -> bool {
        matches!(self, Ty::T(c) if **c == *t)
    }

    fn as_type(&self) -> Option<&Type> {
        match self {
            Ty::T(t) => Some(t),
            Ty::Null => None,
        }
    }

    /// The part of this type `pick` selects: borrowed from the program
    /// when this type is, cloned only out of a type the checker built.
    fn part(&self, pick: impl Fn(&Type) -> Option<&Type>) -> Option<Cow<'a, Type>> {
        match self {
            Ty::T(Cow::Borrowed(t)) => pick(t).map(Cow::Borrowed),
            Ty::T(Cow::Owned(t)) => pick(t).cloned().map(Cow::Owned),
            Ty::Null => None,
        }
    }

    fn display(&self) -> String {
        match self {
            Ty::T(t) => t.to_string(),
            Ty::Null => "null".to_string(),
        }
    }
}

fn list_elem(t: &Type) -> Option<&Type> {
    match t {
        Type::List(e) => Some(e),
        _ => None,
    }
}

fn map_value(t: &Type) -> Option<&Type> {
    match t {
        Type::Map(_, v) => Some(v),
        _ => None,
    }
}

/// Builtin free-function signatures.
pub fn builtin_signature(name: &str) -> Option<(&'static [Type], Type)> {
    use Type::*;
    const STR1: &[Type] = &[Str];
    const INT2: &[Type] = &[Int, Int];
    const INT1: &[Type] = &[Int];
    const STR2: &[Type] = &[Str, Str];
    const NONE: &[Type] = &[];
    Some(match name {
        "log" => (STR1, Unit),
        "blocking_io" => (STR1, Unit),
        "now" => (NONE, Int),
        "min" => (INT2, Int),
        "max" => (INT2, Int),
        "abs" => (INT1, Int),
        "str_of" => (INT1, Str),
        "concat" => (STR2, Str),
        _ => return None,
    })
}

/// Type-check a whole program; returns all errors found (empty = ok).
pub fn check_program(program: &Program) -> Vec<TypeError> {
    let mut errors = Vec::new();
    // One scope stack serves every function: each starts and ends empty.
    let mut env = Scope::default();
    for module in &program.modules {
        let mut ck = Checker { program, module, lm: None, errors: &mut errors };
        // Struct field types must be well-formed.
        for s in &module.structs {
            for (fname, ty) in &s.fields {
                ck.check_type_wf(ty, s.span, &|| format!("field `{}.{}`", s.name, fname));
            }
        }
        for g in &module.globals {
            ck.check_type_wf(&g.ty, g.span, &|| format!("global `{}`", g.name));
        }
        for f in &module.functions {
            ck.check_fn(f, &mut env);
        }
    }
    errors
}

/// The local variables in scope: a stack searched from the end, so the
/// latest binding of a name shadows earlier ones. A block records the
/// stack height on entry and truncates back to it on exit, which drops
/// its `let`s (and a `for` loop's variable) and uncovers whatever they
/// shadowed.
#[derive(Default)]
struct Scope<'a> {
    vars: Vec<(&'a str, Cow<'a, Type>)>,
}

impl<'a> Scope<'a> {
    fn get(&self, name: &str) -> Option<&Cow<'a, Type>> {
        self.vars.iter().rev().find(|(n, _)| *n == name).map(|(_, t)| t)
    }

    fn bind(&mut self, name: &'a str, ty: Cow<'a, Type>) {
        self.vars.push((name, ty));
    }
}

struct Checker<'a, 'e> {
    program: &'a Program,
    module: &'a Module,
    /// Built on the first error: a clean module never needs one.
    lm: Option<LineMap>,
    errors: &'e mut Vec<TypeError>,
}

impl<'a> Checker<'a, '_> {
    fn error(&mut self, span: Span, message: String) {
        let module = self.module;
        let lm = self.lm.get_or_insert_with(|| LineMap::new(module.name.clone(), &module.source));
        let loc = lm.span_loc(span);
        self.errors.push(TypeError {
            message,
            source: loc.source,
            line: loc.line,
            col: loc.col,
        });
    }

    /// `what` names the declaration in a message; it is rendered only
    /// when there is an error to report.
    fn check_type_wf(&mut self, ty: &Type, span: Span, what: &dyn Fn() -> String) {
        match ty {
            Type::Struct(name)
                if self.program.struct_decl(name).is_none() => {
                    self.error(span, format!("{}: unknown struct type `{name}`", what()));
                }
            Type::Map(k, v) => {
                if !matches!(**k, Type::Int | Type::Str | Type::Bool) {
                    self.error(span, format!("{}: map key type must be int/str/bool", what()));
                }
                self.check_type_wf(v, span, what);
            }
            Type::List(t) => self.check_type_wf(t, span, what),
            _ => {}
        }
    }

    fn check_fn(&mut self, f: &'a FnDecl, env: &mut Scope<'a>) {
        for (p, ty) in &f.params {
            self.check_type_wf(ty, f.span, &|| format!("parameter `{p}` of `{}`", f.name));
            env.bind(p, Cow::Borrowed(ty));
        }
        let returned = self.check_block(&f.body, env, f);
        env.vars.clear();
        if f.ret != Type::Unit && !returned {
            self.error(
                f.span,
                format!("function `{}` must return a value of type {} on all paths", f.name, f.ret),
            );
        }
    }

    /// Check a block; returns whether every path through it returns.
    fn check_block(&mut self, stmts: &'a [Stmt], env: &mut Scope<'a>, f: &FnDecl) -> bool {
        let mut returns = false;
        let mark = env.vars.len();
        for s in stmts {
            if self.check_stmt(s, env, f) {
                returns = true;
            }
        }
        // Restore scope (lets are block-scoped).
        env.vars.truncate(mark);
        returns
    }

    /// Check one statement; returns whether it definitely returns/throws.
    fn check_stmt(&mut self, s: &'a Stmt, env: &mut Scope<'a>, f: &FnDecl) -> bool {
        match &s.kind {
            StmtKind::Let { name, ty, init } => {
                let init_ty = self.infer(init, env);
                let final_ty = match (ty, init_ty) {
                    (Some(decl), Ty::Null) => {
                        if !decl.nullable() {
                            self.error(s.span, format!("cannot initialize `{name}: {decl}` with null"));
                        }
                        Cow::Borrowed(decl)
                    }
                    (Some(decl), Ty::T(actual)) => {
                        if *decl != *actual {
                            self.error(
                                s.span,
                                format!("`{name}` declared {decl} but initialized with {actual}"),
                            );
                        }
                        Cow::Borrowed(decl)
                    }
                    (None, Ty::T(actual)) => {
                        if *actual == Type::Unit {
                            self.error(s.span, format!("cannot infer a value type for `{name}`"));
                        }
                        actual
                    }
                    (None, Ty::Null) => {
                        self.error(
                            s.span,
                            format!("`let {name} = null` needs a type annotation"),
                        );
                        Cow::Owned(Type::Unit)
                    }
                };
                env.bind(name, final_ty);
                false
            }
            StmtKind::Assign { target, value } => {
                let vty = self.infer(value, env);
                match target {
                    LValue::Var(name) => {
                        let program = self.program;
                        let expected = env
                            .get(name)
                            .map(|t| &**t)
                            .or_else(|| program.global(name).map(|g| &g.ty));
                        match expected {
                            Some(expected) => {
                                self.require_assignable(expected, &vty, s.span, name)
                            }
                            None => self.error(
                                s.span,
                                format!("assignment to unknown variable `{name}`"),
                            ),
                        }
                    }
                    LValue::Field(obj, field) => {
                        let oty = self.infer(obj, env);
                        match oty.as_type() {
                            Some(Type::Struct(sn)) => {
                                let program = self.program;
                                match program.struct_decl(sn).and_then(|d| d.field_type(field)) {
                                    Some(ft) => self.require_assignable(ft, &vty, s.span, field),
                                    None => self.error(
                                        s.span,
                                        format!("struct `{sn}` has no field `{field}`"),
                                    ),
                                }
                            }
                            _ => self.error(
                                s.span,
                                format!(
                                    "field assignment on non-struct value of type {}",
                                    oty.display()
                                ),
                            ),
                        }
                    }
                }
                false
            }
            StmtKind::If { cond, then_body, else_body } => {
                self.require_bool(cond, env);
                let t = self.check_block(then_body, env, f);
                let e = self.check_block(else_body, env, f);
                t && e && !else_body.is_empty()
            }
            StmtKind::While { cond, body } => {
                self.require_bool(cond, env);
                self.check_block(body, env, f);
                false
            }
            StmtKind::For { var, iter, body } => {
                let ity = self.infer(iter, env);
                let elem = match ity.part(list_elem) {
                    Some(elem) => elem,
                    None => {
                        let found = ity.display();
                        self.error(s.span, format!("for-in requires a list, found {found}"));
                        Cow::Owned(Type::Unit)
                    }
                };
                let mark = env.vars.len();
                env.bind(var, elem);
                self.check_block(body, env, f);
                env.vars.truncate(mark);
                false
            }
            StmtKind::Return(value) => {
                match value {
                    None => {
                        if f.ret != Type::Unit {
                            self.error(s.span, format!("`return;` in function returning {}", f.ret));
                        }
                    }
                    Some(e) => {
                        let ty = self.infer(e, env);
                        if f.ret == Type::Unit {
                            self.error(s.span, "value returned from unit function".to_string());
                        } else {
                            self.require_assignable(&f.ret, &ty, s.span, "return value");
                        }
                    }
                }
                true
            }
            StmtKind::Assert { cond, .. } => {
                self.require_bool(cond, env);
                false
            }
            StmtKind::Sync { body, .. } => self.check_block(body, env, f),
            StmtKind::Throw(_) => true,
            StmtKind::Expr(e) => {
                self.infer(e, env);
                false
            }
        }
    }

    fn require_assignable(&mut self, expected: &Type, actual: &Ty, span: Span, what: &str) {
        match actual {
            Ty::Null => {
                if !expected.nullable() {
                    self.error(span, format!("cannot assign null to `{what}: {expected}`"));
                }
            }
            Ty::T(t) => {
                if **t != *expected {
                    self.error(span, format!("`{what}` expects {expected}, found {t}"));
                }
            }
        }
    }

    fn require_bool(&mut self, e: &'a Expr, env: &Scope<'a>) {
        let ty = self.infer(e, env);
        if !ty.is(&Type::Bool) {
            self.error(e.span, format!("condition must be bool, found {}", ty.display()));
        }
    }

    fn infer(&mut self, e: &'a Expr, env: &Scope<'a>) -> Ty<'a> {
        match &e.kind {
            ExprKind::Int(_) => Ty::owned(Type::Int),
            ExprKind::Bool(_) => Ty::owned(Type::Bool),
            ExprKind::Str(_) => Ty::owned(Type::Str),
            ExprKind::Null => Ty::Null,
            ExprKind::Var(name) => match env.get(name) {
                Some(t) => Ty::T(t.clone()),
                None => match self.program.global(name) {
                    Some(g) => Ty::T(Cow::Borrowed(&g.ty)),
                    None => {
                        self.error(e.span, format!("unknown variable `{name}`"));
                        Ty::owned(Type::Unit)
                    }
                },
            },
            ExprKind::Field(obj, field) => {
                let oty = self.infer(obj, env);
                match oty.as_type() {
                    Some(Type::Struct(sn)) => {
                        let program = self.program;
                        match program.struct_decl(sn).and_then(|d| d.field_type(field)) {
                            Some(ft) => Ty::T(Cow::Borrowed(ft)),
                            None => {
                                self.error(e.span, format!("struct `{sn}` has no field `{field}`"));
                                Ty::owned(Type::Unit)
                            }
                        }
                    }
                    _ => {
                        self.error(
                            e.span,
                            format!("field access `.{field}` on non-struct type {}", oty.display()),
                        );
                        Ty::owned(Type::Unit)
                    }
                }
            }
            ExprKind::Index(list, idx) => {
                let lty = self.infer(list, env);
                let ity = self.infer(idx, env);
                if !ity.is(&Type::Int) {
                    self.error(e.span, "index must be int".to_string());
                }
                match lty.part(list_elem) {
                    Some(elem) => Ty::T(elem),
                    None => {
                        self.error(e.span, format!("indexing non-list type {}", lty.display()));
                        Ty::owned(Type::Unit)
                    }
                }
            }
            ExprKind::Unary(UnOp::Neg, inner) => {
                let t = self.infer(inner, env);
                if !t.is(&Type::Int) {
                    self.error(e.span, format!("negation requires int, found {}", t.display()));
                }
                Ty::owned(Type::Int)
            }
            ExprKind::Unary(UnOp::Not, inner) => {
                let t = self.infer(inner, env);
                if !t.is(&Type::Bool) {
                    self.error(e.span, format!("`!` requires bool, found {}", t.display()));
                }
                Ty::owned(Type::Bool)
            }
            ExprKind::Binary(op, l, r) => self.infer_binary(*op, l, r, e.span, env),
            ExprKind::Call(name, args) => self.infer_call(name, args, e.span, env),
            ExprKind::MethodCall(recv, method, args) => {
                self.infer_method(recv, method, args, e.span, env)
            }
            ExprKind::New(name, fields) => {
                let program = self.program;
                let Some(decl) = program.struct_decl(name) else {
                    self.error(e.span, format!("unknown struct `{name}`"));
                    return Ty::owned(Type::Unit);
                };
                for (fname, fexpr) in fields {
                    match decl.field_type(fname) {
                        Some(ft) => {
                            let at = self.infer(fexpr, env);
                            self.require_assignable(ft, &at, fexpr.span, fname);
                        }
                        None => {
                            self.error(fexpr.span, format!("struct `{name}` has no field `{fname}`"))
                        }
                    }
                }
                // Omitted fields take their zero value (0 / false / "" /
                // null / empty collection), mirroring Java field defaults.
                Ty::owned(Type::Struct(name.clone()))
            }
        }
    }

    fn infer_binary(
        &mut self,
        op: BinOp,
        l: &'a Expr,
        r: &'a Expr,
        span: Span,
        env: &Scope<'a>,
    ) -> Ty<'a> {
        let lt = self.infer(l, env);
        let rt = self.infer(r, env);
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                if !lt.is(&Type::Int) || !rt.is(&Type::Int) {
                    self.error(
                        span,
                        format!("`{op}` requires int operands, found {} and {}", lt.display(), rt.display()),
                    );
                }
                Ty::owned(Type::Int)
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if !lt.is(&Type::Int) || !rt.is(&Type::Int) {
                    self.error(
                        span,
                        format!("`{op}` requires int operands, found {} and {}", lt.display(), rt.display()),
                    );
                }
                Ty::owned(Type::Bool)
            }
            BinOp::Eq | BinOp::Ne => {
                let ok = match (&lt, &rt) {
                    (Ty::Null, Ty::Null) => true,
                    (Ty::Null, Ty::T(t)) | (Ty::T(t), Ty::Null) => t.nullable(),
                    (Ty::T(a), Ty::T(b)) => a == b && **a != Type::Unit,
                };
                if !ok {
                    self.error(
                        span,
                        format!("cannot compare {} with {}", lt.display(), rt.display()),
                    );
                }
                Ty::owned(Type::Bool)
            }
            BinOp::And | BinOp::Or => {
                if !lt.is(&Type::Bool) || !rt.is(&Type::Bool) {
                    self.error(
                        span,
                        format!("`{op}` requires bool operands, found {} and {}", lt.display(), rt.display()),
                    );
                }
                Ty::owned(Type::Bool)
            }
        }
    }

    fn infer_call(
        &mut self,
        name: &str,
        args: &'a [Expr],
        span: Span,
        env: &Scope<'a>,
    ) -> Ty<'a> {
        if let Some((params, ret)) = builtin_signature(name) {
            if args.len() != params.len() {
                self.error(
                    span,
                    format!("builtin `{name}` takes {} argument(s), got {}", params.len(), args.len()),
                );
            }
            for (a, p) in args.iter().zip(params.iter()) {
                let at = self.infer(a, env);
                self.require_assignable(p, &at, a.span, name);
            }
            return Ty::owned(ret);
        }
        let program = self.program;
        let Some(decl) = program.function(name) else {
            self.error(span, format!("call to unknown function `{name}`"));
            for a in args {
                self.infer(a, env);
            }
            return Ty::owned(Type::Unit);
        };
        if args.len() != decl.params.len() {
            self.error(
                span,
                format!(
                    "`{name}` takes {} argument(s), got {}",
                    decl.params.len(),
                    args.len()
                ),
            );
        }
        for (a, (pname, pty)) in args.iter().zip(decl.params.iter()) {
            let at = self.infer(a, env);
            self.require_assignable(pty, &at, a.span, pname);
        }
        Ty::T(Cow::Borrowed(&decl.ret))
    }

    fn infer_method(
        &mut self,
        recv: &'a Expr,
        method: &str,
        args: &'a [Expr],
        span: Span,
        env: &Scope<'a>,
    ) -> Ty<'a> {
        let rty = self.infer(recv, env);
        // Every argument is inferred (and its errors reported) first; no
        // method takes more than two, so only two types are kept.
        let mut arg_tys: [Option<Ty>; 2] = [None, None];
        for (i, a) in args.iter().enumerate() {
            let t = self.infer(a, env);
            if let Some(slot) = arg_tys.get_mut(i) {
                *slot = Some(t);
            }
        }
        let arity = |this: &mut Self, n: usize| {
            if args.len() != n {
                this.error(span, format!("`{method}` takes {n} argument(s), got {}", args.len()));
            }
        };
        match (rty.as_type(), method) {
            (Some(Type::Map(k, _)), "get") => {
                arity(self, 1);
                if let Some(at) = &arg_tys[0] {
                    self.require_assignable(k, at, span, "map key");
                }
                // get returns the value or null for struct values; for
                // scalar values it returns the zero value when missing —
                // `contains` is the idiomatic existence check.
                Ty::T(rty.part(map_value).expect("a map has a value type"))
            }
            (Some(Type::Map(k, v)), "put") => {
                arity(self, 2);
                if let Some(at) = &arg_tys[0] {
                    self.require_assignable(k, at, span, "map key");
                }
                if let Some(at) = &arg_tys[1] {
                    self.require_assignable(v, at, span, "map value");
                }
                Ty::owned(Type::Unit)
            }
            (Some(Type::Map(k, _)), "remove") => {
                arity(self, 1);
                if let Some(at) = &arg_tys[0] {
                    self.require_assignable(k, at, span, "map key");
                }
                Ty::owned(Type::Unit)
            }
            (Some(Type::Map(k, _)), "contains") => {
                arity(self, 1);
                if let Some(at) = &arg_tys[0] {
                    self.require_assignable(k, at, span, "map key");
                }
                Ty::owned(Type::Bool)
            }
            (Some(Type::Map(_, _)), "size") => {
                arity(self, 0);
                Ty::owned(Type::Int)
            }
            (Some(Type::Map(k, _)), "keys") => {
                arity(self, 0);
                Ty::owned(Type::List(k.clone()))
            }
            (Some(Type::Map(_, v)), "values") => {
                arity(self, 0);
                Ty::owned(Type::List(v.clone()))
            }
            (Some(Type::Map(_, _)), "clear") => {
                arity(self, 0);
                Ty::owned(Type::Unit)
            }
            (Some(Type::List(elem)), "push") => {
                arity(self, 1);
                if let Some(at) = &arg_tys[0] {
                    self.require_assignable(elem, at, span, "list element");
                }
                Ty::owned(Type::Unit)
            }
            (Some(Type::List(_)), "len") => {
                arity(self, 0);
                Ty::owned(Type::Int)
            }
            (Some(Type::List(_)), "get") => {
                arity(self, 1);
                if let Some(at) = &arg_tys[0] {
                    self.require_assignable(&Type::Int, at, span, "list index");
                }
                Ty::T(rty.part(list_elem).expect("a list has an element type"))
            }
            (Some(Type::List(elem)), "set") => {
                arity(self, 2);
                if let Some(at) = &arg_tys[0] {
                    self.require_assignable(&Type::Int, at, span, "list index");
                }
                if let Some(at) = &arg_tys[1] {
                    self.require_assignable(elem, at, span, "list element");
                }
                Ty::owned(Type::Unit)
            }
            (Some(Type::List(elem)), "contains") => {
                arity(self, 1);
                if let Some(at) = &arg_tys[0] {
                    self.require_assignable(elem, at, span, "list element");
                }
                Ty::owned(Type::Bool)
            }
            (Some(Type::List(_)), "clear") => {
                arity(self, 0);
                Ty::owned(Type::Unit)
            }
            (Some(Type::Str), "len") => {
                arity(self, 0);
                Ty::owned(Type::Int)
            }
            _ => {
                self.error(
                    span,
                    format!("no method `{method}` on type {}", rty.display()),
                );
                Ty::owned(Type::Unit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn errs(src: &str) -> Vec<String> {
        let p = Program::parse_single("t", src).expect("parse");
        check_program(&p).into_iter().map(|e| e.message).collect()
    }

    fn ok(src: &str) {
        let e = errs(src);
        assert!(e.is_empty(), "unexpected type errors: {e:?}");
    }

    #[test]
    fn accepts_session_module() {
        ok("struct Session { id: int, closing: bool, ttl: int }\n\
            global sessions: map<int, Session>;\n\
            fn touch(sid: int) -> bool {\n\
                let s: Session = sessions.get(sid);\n\
                if (s == null || s.closing) { return false; }\n\
                s.ttl = 30;\n\
                return true;\n\
            }");
    }

    #[test]
    fn rejects_unknown_variable() {
        assert!(errs("fn f() -> int { return nope; }")
            .iter()
            .any(|m| m.contains("unknown variable")));
    }

    #[test]
    fn rejects_bad_condition_type() {
        assert!(errs("fn f(x: int) { if (x) { } }").iter().any(|m| m.contains("must be bool")));
    }

    #[test]
    fn rejects_null_to_int() {
        assert!(errs("fn f() { let x: int = null; }")
            .iter()
            .any(|m| m.contains("null")));
    }

    #[test]
    fn null_ok_for_struct() {
        ok("struct S { v: int } fn f() { let x: S = null; }");
    }

    #[test]
    fn rejects_missing_return() {
        assert!(errs("fn f(x: int) -> int { if (x > 0) { return 1; } }")
            .iter()
            .any(|m| m.contains("must return")));
    }

    #[test]
    fn accepts_return_on_both_branches() {
        ok("fn f(x: int) -> int { if (x > 0) { return 1; } else { return 2; } }");
    }

    #[test]
    fn throw_counts_as_termination() {
        ok("fn f(x: int) -> int { if (x > 0) { return 1; } else { throw \"bad\"; } }");
    }

    #[test]
    fn rejects_unknown_field() {
        assert!(errs("struct S { v: int } fn f(s: S) -> int { return s.w; }")
            .iter()
            .any(|m| m.contains("no field `w`")));
    }

    #[test]
    fn rejects_arity_mismatch() {
        assert!(errs("fn g(a: int) {} fn f() { g(); }")
            .iter()
            .any(|m| m.contains("takes 1 argument")));
    }

    #[test]
    fn rejects_wrong_map_key() {
        assert!(errs(
            "global m: map<int, int>; fn f() { m.put(\"k\", 1); }"
        )
        .iter()
        .any(|m| m.contains("map key")));
    }

    #[test]
    fn rejects_cross_type_compare() {
        assert!(errs("fn f(a: int, b: str) -> bool { return a == b; }")
            .iter()
            .any(|m| m.contains("cannot compare")));
    }

    #[test]
    fn new_allows_omitted_fields_with_defaults() {
        ok("struct T { v: int } struct S { v: int, next: T, tags: list<int> }\n\
            fn f() -> S { return new S { }; }");
    }

    #[test]
    fn new_rejects_unknown_field() {
        assert!(errs("struct S { v: int } fn f() -> S { return new S { w: 1 }; }")
            .iter()
            .any(|m| m.contains("no field `w`")));
    }

    #[test]
    fn builtin_signatures_enforced() {
        assert!(errs("fn f() { blocking_io(3); }").iter().any(|m| m.contains("blocking_io")));
        ok("fn f() -> int { blocking_io(\"disk\"); return now() + min(1, 2); }");
    }

    #[test]
    fn map_key_type_restricted() {
        let p = Program::parse_single(
            "t",
            "struct S { v: int } global bad: map<S, int>;",
        )
        .expect("parse");
        assert!(check_program(&p).iter().any(|e| e.message.contains("map key type")));
    }

    #[test]
    fn unknown_struct_type_in_field() {
        assert!(errs("struct S { n: Missing }").iter().any(|m| m.contains("unknown struct")));
    }

    #[test]
    fn for_in_over_list() {
        ok("fn f(xs: list<int>) -> int { let t = 0; for x in xs { t = t + x; } return t; }");
        assert!(errs("fn f(x: int) { for y in x { } }").iter().any(|m| m.contains("for-in")));
    }
}
