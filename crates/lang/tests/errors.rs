//! Failure-injection tests for the interpreter: every runtime error
//! class, plus recovery invariants (errors must not poison interpreter
//! state reused by later calls — the harness reuses interpreters across
//! setup/test call sequences).

use lisa_lang::interp::ErrorKind;
use lisa_lang::{Interp, NullTracer, Program, RunConfig, Value};

fn program(src: &str) -> Program {
    let p = Program::parse_single("t", src).expect("parse");
    let errs = lisa_lang::check_program(&p);
    assert!(errs.is_empty(), "{errs:?}");
    p
}

fn run_err(src: &str, entry: &str, args: Vec<Value>) -> ErrorKind {
    let p = program(src);
    let mut interp = Interp::new(&p);
    interp.call(entry, args, &mut NullTracer).expect_err("should fail").kind
}

#[test]
fn null_field_read() {
    let k = run_err(
        "struct S { v: int } fn f() -> int { let s: S = null; return s.v; }",
        "f",
        vec![],
    );
    assert!(matches!(k, ErrorKind::NullDeref { .. }));
}

#[test]
fn null_field_write() {
    let k = run_err(
        "struct S { v: int } fn f() { let s: S = null; s.v = 3; }",
        "f",
        vec![],
    );
    assert!(matches!(k, ErrorKind::NullDeref { .. }));
}

#[test]
fn null_method_call() {
    // A missing map entry of list type yields null at runtime.
    let k = run_err(
        "global m: map<int, list<int>>;\n\
         fn f() { let xs: list<int> = m.get(0); xs.push(1); }",
        "f",
        vec![],
    );
    assert!(matches!(k, ErrorKind::NullDeref { .. }));
}

#[test]
fn list_index_out_of_bounds_both_sides() {
    let src = "global xs: list<int>; fn f(i: int) -> int { xs.push(7); return xs[i]; }";
    for bad in [-1i64, 1, 100] {
        let k = run_err(src, "f", vec![Value::Int(bad)]);
        assert!(matches!(k, ErrorKind::IndexOutOfBounds { .. }), "index {bad}: {k:?}");
    }
}

#[test]
fn list_set_out_of_bounds() {
    let k = run_err(
        "global xs: list<int>; fn f() { xs.set(0, 1); }",
        "f",
        vec![],
    );
    assert!(matches!(k, ErrorKind::IndexOutOfBounds { index: 0, len: 0 }));
}

#[test]
fn method_call_on_struct_reference() {
    // The checker sees a list; the harness hands in a struct object.
    let p = program("fn f(xs: list<int>) { xs.push(1); }");
    let mut interp = Interp::new(&p);
    let s = interp.heap.alloc(lisa_lang::HeapObj::Struct {
        ty: "Session".into(),
        fields: Default::default(),
    });
    let k = interp.call("f", vec![Value::Ref(s)], &mut NullTracer).expect_err("struct").kind;
    assert_eq!(
        k,
        ErrorKind::TypeMismatch { expected: "collection", found: "Session".to_string() }
    );
}

#[test]
fn stack_overflow_on_unbounded_recursion() {
    let k = run_err("fn f(n: int) -> int { return f(n + 1); }", "f", vec![Value::Int(0)]);
    assert!(matches!(k, ErrorKind::StackOverflow));
}

#[test]
fn deep_but_bounded_recursion_is_fine() {
    let p = program("fn f(n: int) -> int { if (n <= 0) { return 0; } return f(n - 1) + 1; }");
    let mut interp = Interp::with_config(&p, RunConfig { max_depth: 30, ..Default::default() });
    let v = interp.call("f", vec![Value::Int(25)], &mut NullTracer).expect("run");
    assert_eq!(v, Value::Int(25));
    let err = interp.call("f", vec![Value::Int(500)], &mut NullTracer).expect_err("too deep");
    assert!(matches!(err.kind, ErrorKind::StackOverflow));
}

#[test]
fn unknown_entry_function() {
    let p = program("fn f() {}");
    let mut interp = Interp::new(&p);
    let err = interp.call("missing", vec![], &mut NullTracer).expect_err("unknown");
    assert!(matches!(err.kind, ErrorKind::UnknownFunction { .. }));
}

#[test]
fn rem_by_zero() {
    let k = run_err("fn f(a: int) -> int { return 7 % a; }", "f", vec![Value::Int(0)]);
    assert_eq!(k, ErrorKind::DivByZero);
}

#[test]
fn error_reports_function_name() {
    let p = program("fn inner() { throw \"oops\"; } fn outer() { inner(); }");
    let mut interp = Interp::new(&p);
    let err = interp.call("outer", vec![], &mut NullTracer).expect_err("throw");
    assert_eq!(err.function, "inner");
    assert!(err.to_string().contains("oops"));
}

#[test]
fn locks_do_not_leak_across_failed_calls() {
    // A throw inside sync(l) aborts the call; the lock must be released
    // so a later call can take it again.
    let p = program(
        "fn boom() { sync (l) { throw \"mid-section\"; } }\n\
         fn fine() -> int { sync (l) { return 1; } return 0; }",
    );
    let mut interp = Interp::new(&p);
    assert!(interp.call("boom", vec![], &mut NullTracer).is_err());
    let v = interp.call("fine", vec![], &mut NullTracer).expect("lock must be free");
    assert_eq!(v, Value::Int(1));
}

#[test]
fn globals_survive_failed_calls() {
    let p = program(
        "global n: int;\n\
         fn bump_then_boom() { n = n + 1; throw \"late\"; }\n\
         fn read() -> int { return n; }",
    );
    let mut interp = Interp::new(&p);
    assert!(interp.call("bump_then_boom", vec![], &mut NullTracer).is_err());
    // Mutations before the failure are visible (no transactionality —
    // matching Java semantics, and exactly why stale state bugs exist).
    assert_eq!(interp.call("read", vec![], &mut NullTracer).expect("read"), Value::Int(1));
}

#[test]
fn step_limit_shared_across_calls() {
    let p = program("fn f() -> int { let t = 0; let i = 0; while (i < 100) { t = t + i; i = i + 1; } return t; }");
    let mut interp = Interp::with_config(&p, RunConfig { max_steps: 900, ..Default::default() });
    // First call fits; the budget is an interpreter-lifetime budget, so
    // repeated calls eventually exhaust it.
    let mut failures = 0;
    for _ in 0..10 {
        if interp.call("f", vec![], &mut NullTracer).is_err() {
            failures += 1;
        }
    }
    assert!(failures > 0, "shared budget must eventually trip");
}

#[test]
fn assert_without_message_uses_default() {
    let k = run_err("fn f() { assert(false); }", "f", vec![]);
    assert_eq!(k, ErrorKind::AssertFailed { message: "assert".into() });
}

#[test]
fn bad_map_key_type_is_runtime_error() {
    // Maps reject non-key values at runtime if they sneak past the type
    // checker via null.
    let p = program(
        "struct S { v: int } global m: map<int, S>;\n\
         fn f(k: int) -> S { return m.get(k); }",
    );
    let mut interp = Interp::new(&p);
    // Normal path works and returns null for a missing key.
    let v = interp.call("f", vec![Value::Int(5)], &mut NullTracer).expect("run");
    assert_eq!(v, Value::Null);
}
