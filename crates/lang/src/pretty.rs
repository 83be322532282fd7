//! Pretty-printer for SIR.
//!
//! Renders AST back to canonical source. The invariant (checked by the
//! property tests in `tests/prop.rs`) is a fixed point through the
//! parser: `parse(print(ast))` equals `ast` up to spans and statement
//! ids. Corpus tooling uses it to render patched modules and the oracle
//! uses it in diagnostics.
//!
//! The `write_*` functions stream into any `fmt::Write`, and
//! fingerprints hash what they write. Names, keywords, types and
//! operators go out as plain `write_str` calls; only integers and
//! string literals that need escaping go through `core::fmt`.

use std::fmt::{self, Write};

use crate::ast::*;

/// Render a whole module.
pub fn print_module(m: &Module) -> String {
    render(|out| write_module(out, m))
}

/// Render a struct declaration.
pub fn print_struct(s: &StructDecl) -> String {
    render(|out| write_struct(out, s))
}

/// Render a function declaration.
pub fn print_fn(f: &FnDecl) -> String {
    render(|out| write_fn(out, f))
}

/// Render an expression with minimal parentheses.
pub fn print_expr(e: &Expr) -> String {
    render(|out| write_expr(out, e))
}

fn render(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write(&mut out);
    out
}

/// [`print_module`] into any writer: the same bytes, without building
/// them up as a `String` first (fingerprints hash them as they stream).
pub fn write_module(out: &mut impl Write, m: &Module) -> fmt::Result {
    for s in &m.structs {
        write_struct(out, s)?;
        out.write_char('\n')?;
    }
    for g in &m.globals {
        out.write_str("global ")?;
        write_typed(out, &g.name, &g.ty)?;
        out.write_str(";\n")?;
    }
    if !m.globals.is_empty() {
        out.write_char('\n')?;
    }
    for (i, f) in m.functions.iter().enumerate() {
        if i > 0 {
            out.write_char('\n')?;
        }
        write_fn(out, f)?;
    }
    Ok(())
}

/// A type as written in source: the same text as its `Display`.
pub fn write_type(out: &mut impl Write, t: &Type) -> fmt::Result {
    match t {
        Type::Int => out.write_str("int"),
        Type::Bool => out.write_str("bool"),
        Type::Str => out.write_str("str"),
        Type::Struct(n) => out.write_str(n),
        Type::Map(k, v) => {
            out.write_str("map<")?;
            write_type(out, k)?;
            out.write_str(", ")?;
            write_type(out, v)?;
            out.write_char('>')
        }
        Type::List(t) => {
            out.write_str("list<")?;
            write_type(out, t)?;
            out.write_char('>')
        }
        Type::Unit => out.write_str("unit"),
    }
}

/// `name: type`, as fields, parameters and globals declare it.
fn write_typed(out: &mut impl Write, name: &str, t: &Type) -> fmt::Result {
    out.write_str(name)?;
    out.write_str(": ")?;
    write_type(out, t)
}

/// A string literal: the text of `{s:?}`, quotes included. Text that
/// needs no escape (printable ASCII other than `"` and `\`) is written
/// as it is; anything else goes through `Debug`, whose escapes are the
/// definition.
fn write_str_lit(out: &mut impl Write, s: &str) -> fmt::Result {
    if s.bytes().all(|b| matches!(b, b' '..=b'~') && b != b'"' && b != b'\\') {
        out.write_char('"')?;
        out.write_str(s)?;
        out.write_char('"')
    } else {
        write!(out, "{s:?}")
    }
}

/// [`print_struct`] into any writer.
pub fn write_struct(out: &mut impl Write, s: &StructDecl) -> fmt::Result {
    out.write_str("struct ")?;
    out.write_str(&s.name)?;
    out.write_str(" { ")?;
    for (i, (n, t)) in s.fields.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write_typed(out, n, t)?;
    }
    out.write_str(" }\n")
}

/// [`print_fn`] into any writer.
pub fn write_fn(out: &mut impl Write, f: &FnDecl) -> fmt::Result {
    out.write_str("fn ")?;
    out.write_str(&f.name)?;
    out.write_char('(')?;
    for (i, (n, t)) in f.params.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write_typed(out, n, t)?;
    }
    out.write_char(')')?;
    if f.ret != Type::Unit {
        out.write_str(" -> ")?;
        write_type(out, &f.ret)?;
    }
    out.write_str(" {\n")?;
    for s in &f.body {
        write_stmt(out, s, 1)?;
    }
    out.write_str("}\n")
}

fn indent(out: &mut impl Write, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        out.write_str("    ")?;
    }
    Ok(())
}

fn write_block(out: &mut impl Write, body: &[Stmt], depth: usize) -> fmt::Result {
    out.write_str("{\n")?;
    for s in body {
        write_stmt(out, s, depth + 1)?;
    }
    indent(out, depth)?;
    out.write_char('}')
}

fn write_stmt(out: &mut impl Write, s: &Stmt, depth: usize) -> fmt::Result {
    indent(out, depth)?;
    match &s.kind {
        StmtKind::Let { name, ty, init } => {
            out.write_str("let ")?;
            match ty {
                Some(t) => write_typed(out, name, t)?,
                None => out.write_str(name)?,
            }
            out.write_str(" = ")?;
            write_expr(out, init)?;
            out.write_str(";\n")
        }
        StmtKind::Assign { target, value } => {
            match target {
                LValue::Var(v) => out.write_str(v)?,
                LValue::Field(obj, field) => {
                    write_child(out, obj, 7, false)?;
                    out.write_char('.')?;
                    out.write_str(field)?;
                }
            }
            out.write_str(" = ")?;
            write_expr(out, value)?;
            out.write_str(";\n")
        }
        StmtKind::If { cond, then_body, else_body } => {
            out.write_str("if (")?;
            write_expr(out, cond)?;
            out.write_str(") ")?;
            write_block(out, then_body, depth)?;
            if !else_body.is_empty() {
                out.write_str(" else ")?;
                // `else if` chains render flat: the nested `if` is
                // written at depth 0, so its own blocks indent from
                // column 0 and it ends its own line.
                if let [nested @ Stmt { kind: StmtKind::If { .. }, .. }] = else_body.as_slice() {
                    return write_stmt(out, nested, 0);
                }
                write_block(out, else_body, depth)?;
            }
            out.write_char('\n')
        }
        StmtKind::While { cond, body } => {
            out.write_str("while (")?;
            write_expr(out, cond)?;
            out.write_str(") ")?;
            write_block(out, body, depth)?;
            out.write_char('\n')
        }
        StmtKind::For { var, iter, body } => {
            out.write_str("for ")?;
            out.write_str(var)?;
            out.write_str(" in ")?;
            write_expr(out, iter)?;
            out.write_char(' ')?;
            write_block(out, body, depth)?;
            out.write_char('\n')
        }
        StmtKind::Return(None) => out.write_str("return;\n"),
        StmtKind::Return(Some(e)) => {
            out.write_str("return ")?;
            write_expr(out, e)?;
            out.write_str(";\n")
        }
        StmtKind::Assert { cond, message } => {
            out.write_str("assert(")?;
            write_expr(out, cond)?;
            if let Some(m) = message {
                out.write_str(", ")?;
                write_str_lit(out, m)?;
            }
            out.write_str(");\n")
        }
        StmtKind::Sync { lock, body } => {
            out.write_str("sync (")?;
            out.write_str(lock)?;
            out.write_str(") ")?;
            write_block(out, body, depth)?;
            out.write_char('\n')
        }
        StmtKind::Throw(m) => {
            out.write_str("throw ")?;
            write_str_lit(out, m)?;
            out.write_str(";\n")
        }
        StmtKind::Expr(e) => {
            write_expr(out, e)?;
            out.write_str(";\n")
        }
    }
}

fn prec(e: &Expr) -> u8 {
    match &e.kind {
        ExprKind::Binary(BinOp::Or, _, _) => 1,
        ExprKind::Binary(BinOp::And, _, _) => 2,
        ExprKind::Binary(
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge,
            _,
            _,
        ) => 3,
        ExprKind::Binary(BinOp::Add | BinOp::Sub, _, _) => 4,
        ExprKind::Binary(BinOp::Mul | BinOp::Div | BinOp::Rem, _, _) => 5,
        ExprKind::Unary(_, _) => 6,
        _ => 7,
    }
}

fn write_args(out: &mut impl Write, args: &[Expr]) -> fmt::Result {
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write_expr(out, a)?;
    }
    Ok(())
}

/// Write `e` as an operand of an operator of precedence `parent`,
/// parenthesized when it binds looser (or equally loose, when
/// `guard_equal`).
fn write_child(out: &mut impl Write, e: &Expr, parent: u8, guard_equal: bool) -> fmt::Result {
    let p = prec(e);
    if p < parent || (guard_equal && p == parent) {
        out.write_char('(')?;
        write_expr(out, e)?;
        out.write_char(')')
    } else {
        write_expr(out, e)
    }
}

/// [`print_expr`] into any writer.
pub fn write_expr(out: &mut impl Write, e: &Expr) -> fmt::Result {
    match &e.kind {
        ExprKind::Int(v) => write!(out, "{v}"),
        ExprKind::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        ExprKind::Str(s) => write_str_lit(out, s),
        ExprKind::Null => out.write_str("null"),
        ExprKind::Var(v) => out.write_str(v),
        ExprKind::Field(obj, field) => {
            write_child(out, obj, 7, false)?;
            out.write_char('.')?;
            out.write_str(field)
        }
        ExprKind::MethodCall(recv, name, args) => {
            write_child(out, recv, 7, false)?;
            out.write_char('.')?;
            out.write_str(name)?;
            out.write_char('(')?;
            write_args(out, args)?;
            out.write_char(')')
        }
        ExprKind::Call(name, args) => {
            out.write_str(name)?;
            out.write_char('(')?;
            write_args(out, args)?;
            out.write_char(')')
        }
        ExprKind::New(name, fields) => {
            out.write_str("new ")?;
            out.write_str(name)?;
            out.write_str(" { ")?;
            for (i, (n, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.write_str(", ")?;
                }
                out.write_str(n)?;
                out.write_str(": ")?;
                write_expr(out, v)?;
            }
            // `new S { }` and `new S { a: 1 }` both close with " }".
            if !fields.is_empty() {
                out.write_char(' ')?;
            }
            out.write_char('}')
        }
        ExprKind::Unary(op, inner) => {
            out.write_str(match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            })?;
            write_child(out, inner, 6, false)
        }
        ExprKind::Binary(op, l, r) => {
            let p = prec(e);
            // Arithmetic and logical chains parse left-associative, so
            // the right child needs parens at equal precedence.
            // Comparisons do not chain at all, so both children do.
            write_child(out, l, p, p == 3)?;
            out.write_char(' ')?;
            out.write_str(op.symbol())?;
            out.write_char(' ')?;
            write_child(out, r, p, true)
        }
        ExprKind::Index(list, idx) => {
            write_child(out, list, 7, false)?;
            out.write_char('[')?;
            write_expr(out, idx)?;
            out.write_char(']')
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    /// Strip spans/ids so printed-and-reparsed modules compare equal.
    fn normalize(m: &Module) -> String {
        format!("{:?}", (&m.structs.iter().map(|s| (&s.name, &s.fields)).collect::<Vec<_>>(),
                          &m.globals.iter().map(|g| (&g.name, &g.ty)).collect::<Vec<_>>(),
                          &m.functions.iter().map(print_fn).collect::<Vec<_>>()))
    }

    fn roundtrip(src: &str) {
        let m1 = parse_module("t", src).expect("parse original");
        let printed = print_module(&m1);
        let m2 = parse_module("t", &printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{printed}"));
        assert_eq!(normalize(&m1), normalize(&m2), "--- printed ---\n{printed}");
    }

    #[test]
    fn roundtrips_the_session_module() {
        roundtrip(
            "struct Session { id: int, closing: bool, ttl: int }\n\
             global sessions: map<int, Session>;\n\
             fn touch(sid: int) -> bool {\n\
                 let s: Session = sessions.get(sid);\n\
                 if (s == null || s.closing) { return false; }\n\
                 s.ttl = 30;\n\
                 return true;\n\
             }",
        );
    }

    #[test]
    fn roundtrips_control_flow() {
        roundtrip(
            "fn f(n: int) -> int {\n\
                 let t = 0;\n\
                 while (n > 0) { if (n % 2 == 0) { t = t + n; } else if (n > 10) { t = t - 1; } else { t = 0; } n = n - 1; }\n\
                 for x in mk() { t = t + x; }\n\
                 sync (l) { blocking_io(\"x\"); }\n\
                 assert(t >= 0, \"non-negative\");\n\
                 if (t == 0) { throw \"zero\"; }\n\
                 return t;\n\
             }\n\
             global tmp: list<int>;\n\
             fn mk() -> list<int> { return tmp; }",
        );
    }

    #[test]
    fn precedence_needs_no_spurious_parens() {
        let m = parse_module("t", "fn f(a: int, b: int, c: int) -> int { return a + b * c; }")
            .expect("parse");
        let printed = print_fn(&m.functions[0]);
        assert!(printed.contains("return a + b * c;"), "{printed}");
    }

    #[test]
    fn parens_preserved_where_needed() {
        roundtrip("fn f(a: int, b: int, c: int) -> int { return (a + b) * c; }");
        roundtrip("fn g(a: bool, b: bool, c: bool) -> bool { return (a || b) && c; }");
        roundtrip("fn h(a: int, b: int, c: int) -> int { return a - (b - c); }");
        roundtrip("fn i(a: bool) -> bool { return !(a && true); }");
    }

    #[test]
    fn roundtrips_new_and_collections() {
        roundtrip(
            "struct P { x: int, tags: list<str> }\n\
             global ps: map<int, P>;\n\
             fn f() -> int {\n\
                 let p = new P { x: 1 };\n\
                 ps.put(1, p);\n\
                 p.tags.push(\"a\");\n\
                 return p.tags.len() + ps.size();\n\
             }",
        );
    }

    #[test]
    fn nested_comparisons_keep_their_parentheses() {
        // Comparisons do not chain in the grammar, so a comparison
        // operand of a comparison needs parentheses on either side.
        roundtrip("fn f(a: bool, b: bool, c: bool) -> bool { return (a == b) == c; }");
        roundtrip("fn g(a: bool, b: bool, c: bool) -> bool { return a == (b != c); }");
        let m = parse_module("t", "fn f(a: int, b: int) -> bool { return (a < b) == (b < a); }")
            .expect("parse");
        assert!(print_fn(&m.functions[0]).contains("return (a < b) == (b < a);"));
    }

    #[test]
    fn assigned_field_object_keeps_its_parentheses() {
        // Not well-typed, but it parses, so it must print back to itself.
        roundtrip("fn f(a: int, b: int) { (a + b).v = 1; (-a).v = 2; }");
    }

    #[test]
    fn string_literals_print_as_debug_does() {
        let mut every_ascii: String = (0u8..128).map(char::from).collect();
        every_ascii.push_str("é ✓ \u{301}");
        let mut cases: Vec<String> = every_ascii.chars().map(String::from).collect();
        let plain = ["", "plain text", "it's", "a\"b", "back\\slash", "tab\t", "café"];
        cases.extend(plain.map(String::from));
        cases.push(every_ascii);
        for s in cases {
            let mut out = String::new();
            write_str_lit(&mut out, &s).expect("write");
            assert_eq!(out, format!("{s:?}"), "literal {s:?}");
        }
    }

    #[test]
    fn string_escapes_survive() {
        roundtrip("fn f() { log(\"a\\nb\\\"c\\\"\"); }");
    }

    #[test]
    fn whole_corpus_roundtrips() {
        for case in lisa_corpus_smoke() {
            roundtrip(&case);
        }
    }

    /// A few corpus-shaped sources (the full corpus roundtrip lives in
    /// the corpus crate's tests to avoid a dependency cycle).
    fn lisa_corpus_smoke() -> Vec<String> {
        vec![
            "struct Snapshot { id: int, expires_at: int }\n\
             global snapshots: map<int, Snapshot>;\n\
             fn serve(snap: Snapshot, req_time: int) {}\n\
             fn restore(id: int, req_time: int) {\n\
                 let snap: Snapshot = snapshots.get(id);\n\
                 if (snap == null || snap.expires_at < req_time) { log(\"rejected\"); return; }\n\
                 serve(snap, req_time);\n\
             }"
            .to_string(),
        ]
    }
}
