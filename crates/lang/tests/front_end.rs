//! Front-end regression tests: type-checker scoping, error reporting
//! order, UTF-8 in string literals, and a pinned corpus module.

use lisa_lang::pretty::print_module;
use lisa_lang::{check_program, fingerprint_program, parse_module, Program};

fn messages(src: &str) -> Vec<String> {
    let p = Program::parse_single("t", src).expect("parse");
    check_program(&p).into_iter().map(|e| e.message).collect()
}

#[test]
fn let_in_a_then_branch_is_not_visible_after_the_if() {
    assert_eq!(
        messages("fn f(c: bool) -> int { if (c) { let x = 1; } return x; }"),
        ["unknown variable `x`", "`return value` expects int, found unit"]
    );
    assert_eq!(
        messages("fn f(c: bool) { if (c) { } else { let y = 1; } y = 2; }"),
        ["assignment to unknown variable `y`"]
    );
}

#[test]
fn for_variable_is_not_visible_after_the_loop() {
    assert_eq!(
        messages("fn f(xs: list<int>) -> int { for x in xs { let t = x; } return x; }"),
        ["unknown variable `x`", "`return value` expects int, found unit"]
    );
}

#[test]
fn inner_shadowing_restores_the_outer_type() {
    // Inside the block `v` is a str; after it, the int again.
    let src = "fn f(c: bool) -> int {\n\
               let v = 1;\n\
               if (c) { let v = \"s\"; log(v); }\n\
               for v in new_list() { log(v); }\n\
               return v + 1;\n\
               }\n\
               global strs: list<str>;\n\
               fn new_list() -> list<str> { return strs; }";
    assert!(messages(src).is_empty(), "{:?}", messages(src));
    // And the shadowing binding really has the inner type.
    assert_eq!(
        messages("fn f(c: bool) { let v = 1; if (c) { let v = \"s\"; v = 2; } v = 3; }"),
        ["`v` expects str, found int"]
    );
    // A parameter shadowed in the body's own block.
    assert!(messages("fn f(p: int) -> str { let p = \"x\"; return p; }").is_empty());
}

/// Two modules with errors in declarations, nested blocks, loops,
/// shadowed names, calls, methods and struct literals. The expected
/// list pins each error's text, location and order.
#[test]
fn multi_error_program_reports_the_same_errors_in_the_same_order() {
    const A: &str = "struct S { v: int, next: Missing, m: map<S, int> }\n\
global g: map<list<int>, Nope>;\n\
global xs: list<int>;\n\
fn f(a: int, b: Ghost) -> int {\n\
    let s: S = null;\n\
    if (a) {\n\
        let t = 1;\n\
        let a: str = \"x\";\n\
        a = 3;\n\
    }\n\
    t = 2;\n\
    for x in xs { let y: bool = x; }\n\
    for z in a { }\n\
    x = 1;\n\
    s.w = 1;\n\
    a.v = 2;\n\
    return s.v + true;\n\
}\n\
fn h() -> int { if (true) { return 1; } }\n";
    const B: &str = "fn k(n: int) {\n\
    let u = h(1, 2);\n\
    let q = null;\n\
    let r = log(\"a\");\n\
    xs.push(\"s\");\n\
    xs.nope();\n\
    assert(n);\n\
    while (n + 1) { n = n - \"1\"; }\n\
    return 3;\n\
}\n\
fn m() -> str { return; }\n\
fn p(s: S) -> bool { return s == 3 || !n || -true > 0; }\n\
fn w() { let v = new S { v: \"x\", zz: 1 }; let q2 = new Nope { }; unknown_fn(1 + \"a\"); }\n";
    let p = Program::parse(&[("a.sir", A), ("b.sir", B)]).expect("parse");
    let got: Vec<String> = check_program(&p).iter().map(|e| e.to_string()).collect();
    let expected = [
        "a.sir:1:1: field `S.next`: unknown struct type `Missing`",
        "a.sir:1:1: field `S.m`: map key type must be int/str/bool",
        "a.sir:2:1: global `g`: map key type must be int/str/bool",
        "a.sir:2:1: global `g`: unknown struct type `Nope`",
        "a.sir:4:1: parameter `b` of `f`: unknown struct type `Ghost`",
        "a.sir:6:5: condition must be bool, found int",
        "a.sir:9:1: `a` expects str, found int",
        "a.sir:11:1: assignment to unknown variable `t`",
        "a.sir:12:15: `y` declared bool but initialized with int",
        "a.sir:13:1: for-in requires a list, found int",
        "a.sir:14:1: assignment to unknown variable `x`",
        "a.sir:15:1: struct `S` has no field `w`",
        "a.sir:16:1: field assignment on non-struct value of type int",
        "a.sir:17:8: `+` requires int operands, found int and bool",
        "a.sir:19:1: function `h` must return a value of type int on all paths",
        "b.sir:2:9: `h` takes 0 argument(s), got 2",
        "b.sir:3:1: `let q = null` needs a type annotation",
        "b.sir:4:1: cannot infer a value type for `r`",
        "b.sir:5:1: `list element` expects int, found str",
        "b.sir:6:1: no method `nope` on type list<int>",
        "b.sir:7:8: condition must be bool, found int",
        "b.sir:8:8: condition must be bool, found int",
        "b.sir:8:21: `-` requires int operands, found int and str",
        "b.sir:9:1: value returned from unit function",
        "b.sir:11:17: `return;` in function returning str",
        "b.sir:12:29: cannot compare S with int",
        "b.sir:12:40: unknown variable `n`",
        "b.sir:12:39: `!` requires bool, found unit",
        "b.sir:12:45: negation requires int, found bool",
        "b.sir:13:29: `v` expects int, found str",
        "b.sir:13:38: struct `S` has no field `zz`",
        "b.sir:13:52: unknown struct `Nope`",
        "b.sir:13:43: cannot infer a value type for `q2`",
        "b.sir:13:66: call to unknown function `unknown_fn`",
        "b.sir:13:77: `+` requires int operands, found int and str",
    ];
    assert_eq!(got, expected);
}

#[test]
fn non_ascii_string_literal_round_trips_byte_identically() {
    let src = "fn f() { log(\"café ✓ 日本\"); assert(true, \"ünïcode\"); throw \"→\"; }\n";
    let m = parse_module("t", src).expect("parse");
    let printed = print_module(&m);
    assert!(printed.contains("log(\"café ✓ 日本\");"), "{printed}");
    assert!(printed.contains("\"ünïcode\"") && printed.contains("throw \"→\";"), "{printed}");
    let reprinted = print_module(&parse_module("t", &printed).expect("reparse"));
    assert_eq!(printed, reprinted, "print∘parse must be a fixed point");
    let fp = |text: &str| fingerprint_program(&Program::parse_single("t", text).expect("parse"));
    assert_eq!(fp(src), fp(&printed));
    assert_eq!(fp(&printed), fp(&reprinted));
}

#[test]
fn stray_non_ascii_character_is_named_at_its_column() {
    let err = parse_module("m.sir", "fn f() {\n    let x = 1 é 2;\n}").expect_err("stray é");
    assert_eq!(err.message, "unexpected character 'é'");
    assert_eq!((err.line, err.col), (2, 15));
    // Columns are byte columns: a multi-byte character before the stray
    // one advances the column by its UTF-8 length.
    let err = parse_module("m.sir", "fn f() { log(\"é\"); ü }").expect_err("stray ü");
    assert_eq!(err.message, "unexpected character 'ü'");
    assert_eq!((err.line, err.col), (1, 21));
}

fn program_error(sources: &[(&str, &str)]) -> String {
    Program::parse(sources).expect_err("must not build").to_string()
}

/// The duplicate reported is the first second-occurrence met walking
/// modules in order and, within a module, functions, then structs, then
/// globals, each in declaration order; not the first by name.
#[test]
fn duplicate_declaration_reported_is_the_first_met_in_declaration_order() {
    // All three kinds duplicated across two modules: module `b` is
    // walked functions first.
    assert_eq!(
        program_error(&[
            ("a", "struct S { v: int } global g: int; fn f() {}"),
            ("b", "global g: int; struct S { v: int } fn f() {}"),
        ]),
        "duplicate function declaration `f`"
    );
    // Structs before globals, whatever the source order.
    assert_eq!(
        program_error(&[
            ("a", "struct S { v: int } global g: int;"),
            ("b", "global g: int; struct S { v: int }"),
        ]),
        "duplicate struct declaration `S`"
    );
    assert_eq!(
        program_error(&[("a", "global g: int;"), ("b", "fn h() {} global g: int;")]),
        "duplicate global declaration `g`"
    );
    // Several duplicate names: declaration order wins, not name order.
    assert_eq!(
        program_error(&[("a", "fn zz() {} fn aa() {}"), ("b", "fn zz() {} fn aa() {}")]),
        "duplicate function declaration `zz`"
    );
    assert_eq!(
        program_error(&[
            ("a", "struct Zed { v: int } struct Abe { v: int }"),
            ("b", "struct Abe { v: int } struct Zed { v: int }"),
        ]),
        "duplicate struct declaration `Abe`"
    );
    // A duplicate inside the first module beats one across modules.
    assert_eq!(
        program_error(&[
            ("a", "global y: int; global x: int; global x: bool;"),
            ("b", "global y: int;"),
        ]),
        "duplicate global declaration `x`"
    );
    // The same name may be a function, a struct and a global at once.
    let p = Program::parse(&[("a", "struct n { v: int } global n: int;"), ("b", "fn n() {}")])
        .expect("one name per kind");
    assert!(p.function("n").is_some() && p.struct_decl("n").is_some() && p.global("n").is_some());
}

#[test]
fn lex_error_wins_over_an_earlier_parse_error() {
    let err = parse_module("m.sir", "fn f( { }\nfn g() { let x = 1 $ 2; }").expect_err("bad");
    assert_eq!(err.to_string(), "m.sir:2:20: unexpected character '$'");
    let err = parse_module("m.sir", "struct { }\n\"open").expect_err("bad");
    assert_eq!(err.to_string(), "m.sir:2:1: unterminated string literal");
}

/// One error from each of the checker's type paths that yields a
/// derived type: for-in, indexing, field access, method call, and an
/// untyped `null` binding.
#[test]
fn derived_type_errors_keep_their_text() {
    let src = "struct S { v: int }\n\
               global m: map<int, S>;\n\
               fn f(n: int, s: S) {\n\
               for x in n { log(x); }\n\
               let a = n[0];\n\
               let b = n.v;\n\
               let c = s.missing;\n\
               let d = m.nope(1);\n\
               let e = null;\n\
               let k = m.get(1).v + m.keys()[0] + m.values().len();\n\
               for t in m.keys() { e = t; }\n\
               }\n";
    let p = Program::parse_single("d.sir", src).expect("parse");
    let got: Vec<String> = check_program(&p).iter().map(|e| e.to_string()).collect();
    let expected = [
        "d.sir:4:1: for-in requires a list, found int",
        "d.sir:4:18: `log` expects str, found unit",
        "d.sir:5:9: indexing non-list type int",
        "d.sir:5:1: cannot infer a value type for `a`",
        "d.sir:6:9: field access `.v` on non-struct type int",
        "d.sir:6:1: cannot infer a value type for `b`",
        "d.sir:7:9: struct `S` has no field `missing`",
        "d.sir:7:1: cannot infer a value type for `c`",
        "d.sir:8:9: no method `nope` on type map<int, S>",
        "d.sir:8:1: cannot infer a value type for `d`",
        "d.sir:9:1: `let e = null` needs a type annotation",
        "d.sir:11:21: `e` expects unit, found int",
    ];
    assert_eq!(got, expected);
}

/// A corpus module (the `mini-hbase/wal_rolling` module of case
/// `hbase-wal-roll`, fixed version) parses to the same tree and prints
/// the same text as it did when identifiers were owned strings: the
/// `{:?}` of the module, spans and source text included, and its
/// canonical print are pinned byte for byte.
#[test]
fn corpus_module_debug_and_print_are_pinned() {
    let src = include_str!("golden/wal_rolling.sir");
    let m = parse_module("mini-hbase/wal_rolling", src).expect("parse");
    assert_eq!(format!("{m:?}"), include_str!("golden/wal_rolling.debug"));
    assert_eq!(print_module(&m), include_str!("golden/wal_rolling.printed"));
}
