//! Abstract syntax tree for SIR.
//!
//! SIR ("Systems IR") is the small statically-typed imperative language
//! the corpus systems are written in. It is the stand-in for the Java
//! subject systems of the paper: structs with typed fields, module
//! globals, functions, `sync` blocks (synchronized sections), and the
//! builtins that matter for the studied failure classes (`blocking_io`,
//! maps, lists, a logical clock).
//!
//! Every statement carries a [`StmtId`] unique within its module, which
//! the analysis and trace layers use to name program points. Identifiers
//! and string literals are [`Name`]s: they share the module's source
//! text instead of each owning a copy.

use crate::name::Name;
use crate::span::Span;
use std::fmt;

/// Unique statement identifier within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A static type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    Int,
    Bool,
    Str,
    /// Reference to a named struct; nullable.
    Struct(Name),
    Map(Box<Type>, Box<Type>),
    List(Box<Type>),
    /// The type of `null` before unification, and of `return;`.
    Unit,
}

impl Type {
    /// May a value of this type be `null`?
    pub fn nullable(&self) -> bool {
        matches!(self, Type::Struct(_))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::write_type(f, self)
    }
}

/// A struct declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDecl {
    pub name: Name,
    pub fields: Vec<(Name, Type)>,
    pub span: Span,
}

impl StructDecl {
    pub fn field_type(&self, field: &str) -> Option<&Type> {
        self.fields.iter().find(|(n, _)| n == field).map(|(_, t)| t)
    }
}

/// A module-level global variable (maps/lists start empty; scalars start
/// at their zero value; struct refs start null).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDecl {
    pub name: Name,
    pub ty: Type,
    pub span: Span,
}

/// A function declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FnDecl {
    pub name: Name,
    pub params: Vec<(Name, Type)>,
    pub ret: Type,
    pub body: Vec<Stmt>,
    pub span: Span,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// The operator as written in source.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    Int(i64),
    Bool(bool),
    Str(Name),
    Null,
    Var(Name),
    /// `obj.field`
    Field(Box<Expr>, Name),
    /// `recv.method(args)` — builtin collection/string methods.
    MethodCall(Box<Expr>, Name, Vec<Expr>),
    /// `f(args)` — user function or free builtin.
    Call(Name, Vec<Expr>),
    /// `new Struct { field: expr, ... }`
    New(Name, Vec<(Name, Expr)>),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `list[i]` — sugar for `list.get(i)`.
    Index(Box<Expr>, Box<Expr>),
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    Var(Name),
    /// `obj.field = ...`
    Field(Box<Expr>, Name),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub id: StmtId,
    pub kind: StmtKind,
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `let x: T = e;`
    Let { name: Name, ty: Option<Type>, init: Expr },
    /// `lv = e;`
    Assign { target: LValue, value: Expr },
    /// `if (c) { .. } else { .. }`
    If { cond: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt> },
    /// `while (c) { .. }`
    While { cond: Expr, body: Vec<Stmt> },
    /// `for x in e { .. }` — iterate a list value.
    For { var: Name, iter: Expr, body: Vec<Stmt> },
    /// `return e?;`
    Return(Option<Expr>),
    /// `assert(c, "msg");`
    Assert { cond: Expr, message: Option<Name> },
    /// `sync (lockName) { .. }` — a synchronized section on a named lock.
    Sync { lock: Name, body: Vec<Stmt> },
    /// `throw "msg";` — abort execution with an error.
    Throw(Name),
    /// Bare expression statement (calls).
    Expr(Expr),
}

/// A parsed module.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name (usually the corpus file stem, e.g. `zk/session`).
    pub name: String,
    pub structs: Vec<StructDecl>,
    pub globals: Vec<GlobalDecl>,
    pub functions: Vec<FnDecl>,
    /// Original source (kept for diffs and diagnostics): the text every
    /// [`Name`] in this module shares.
    pub source: Name,
}

impl Module {
    pub fn function(&self, name: &str) -> Option<&FnDecl> {
        self.functions.iter().find(|f| f.name == name)
    }

    pub fn struct_decl(&self, name: &str) -> Option<&StructDecl> {
        self.structs.iter().find(|s| s.name == name)
    }

    pub fn global(&self, name: &str) -> Option<&GlobalDecl> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Visit every statement (depth-first, in source order).
    pub fn visit_stmts<'a>(&'a self, f: &mut dyn FnMut(&'a FnDecl, &'a Stmt)) {
        fn walk<'a>(func: &'a FnDecl, stmts: &'a [Stmt], f: &mut dyn FnMut(&'a FnDecl, &'a Stmt)) {
            for s in stmts {
                f(func, s);
                match &s.kind {
                    StmtKind::If { then_body, else_body, .. } => {
                        walk(func, then_body, f);
                        walk(func, else_body, f);
                    }
                    StmtKind::While { body, .. }
                    | StmtKind::For { body, .. }
                    | StmtKind::Sync { body, .. } => walk(func, body, f),
                    _ => {}
                }
            }
        }
        for func in &self.functions {
            walk(func, &func.body, f);
        }
    }

    /// Total number of statements.
    pub fn stmt_count(&self) -> usize {
        let mut n = 0;
        self.visit_stmts(&mut |_, _| n += 1);
        n
    }
}

/// Walk every sub-expression of `e`, including `e` itself.
pub fn visit_exprs<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Int(_)
        | ExprKind::Bool(_)
        | ExprKind::Str(_)
        | ExprKind::Null
        | ExprKind::Var(_) => {}
        ExprKind::Field(b, _) => visit_exprs(b, f),
        ExprKind::MethodCall(recv, _, args) => {
            visit_exprs(recv, f);
            for a in args {
                visit_exprs(a, f);
            }
        }
        ExprKind::Call(_, args) => {
            for a in args {
                visit_exprs(a, f);
            }
        }
        ExprKind::New(_, fields) => {
            for (_, a) in fields {
                visit_exprs(a, f);
            }
        }
        ExprKind::Unary(_, a) => visit_exprs(a, f),
        ExprKind::Binary(_, a, b) => {
            visit_exprs(a, f);
            visit_exprs(b, f);
        }
        ExprKind::Index(a, b) => {
            visit_exprs(a, f);
            visit_exprs(b, f);
        }
    }
}

/// All expressions appearing directly in a statement (not descending into
/// nested statements), in source order. Allocates nothing.
pub fn stmt_exprs(stmt: &Stmt) -> impl Iterator<Item = &Expr> {
    let (first, second) = match &stmt.kind {
        StmtKind::Let { init, .. } => (Some(init), None),
        StmtKind::Assign { target, value } => match target {
            LValue::Field(obj, _) => (Some(value), Some(&**obj)),
            LValue::Var(_) => (Some(value), None),
        },
        StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => (Some(cond), None),
        StmtKind::For { iter, .. } => (Some(iter), None),
        StmtKind::Return(Some(e)) => (Some(e), None),
        StmtKind::Return(None) | StmtKind::Sync { .. } | StmtKind::Throw(_) => (None, None),
        StmtKind::Assert { cond, .. } => (Some(cond), None),
        StmtKind::Expr(e) => (Some(e), None),
    };
    first.into_iter().chain(second)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display() {
        let t = Type::Map(Box::new(Type::Int), Box::new(Type::Struct("Session".into())));
        assert_eq!(t.to_string(), "map<int, Session>");
        assert!(!t.nullable());
        assert!(Type::Struct("S".into()).nullable());
    }

    #[test]
    fn struct_field_lookup() {
        let s = StructDecl {
            name: "Session".into(),
            fields: vec![("id".into(), Type::Int), ("closing".into(), Type::Bool)],
            span: Span::default(),
        };
        assert_eq!(s.field_type("closing"), Some(&Type::Bool));
        assert_eq!(s.field_type("missing"), None);
    }
}
