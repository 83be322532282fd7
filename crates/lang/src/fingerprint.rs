//! Content-hash fingerprints over SIR declarations.
//!
//! The rule-report memo needs a cheap, stable answer to "is this the
//! same code?": its key carries the program's fingerprint, so a report
//! is reused only for the exact source it was computed from.
//! Fingerprints hash the *canonical pretty-printed* form, the same fixed
//! point the parser property tests pin, so they are insensitive to
//! spans, statement ids, and original formatting, but change whenever
//! any semantics-bearing text changes.
//!
//! The printer streams straight into the hasher (FNV-1a consumes bytes
//! one at a time, so hashing the pieces equals hashing the whole
//! rendering).
//!
//! Fingerprint values are persisted, indirectly: a durable run's journal
//! key (the `run-started` record of `wal.log`) hashes
//! `SystemVersion::fingerprint`, which hashes [`fingerprint_program`]. A
//! change to the rendering or the hashing therefore makes every journaled
//! run re-check once, its old journal archived as stale, besides
//! splitting memo keys. `crates/corpus/tests/fingerprint_golden.rs` pins
//! the values per corpus version, so such a change is a deliberate,
//! visible one.

use std::collections::BTreeMap;

use lisa_util::Fnv1a;

use crate::ast::FnDecl;
use crate::pretty::{write_fn, write_struct, write_type};
use crate::program::Program;

/// Fingerprint one function body (canonical form).
pub fn fingerprint_fn(f: &FnDecl) -> u64 {
    let mut h = Fnv1a::new();
    h.part_with(|h| write_fn(h, f));
    h.finish()
}

/// Fingerprint everything that is *not* a function: struct layouts and
/// global declarations. Interpreter semantics depend on these, so any
/// per-function dirtiness analysis must also compare this hash.
pub fn fingerprint_decls(p: &Program) -> u64 {
    let mut h = Fnv1a::new();
    for s in p.structs() {
        h.part_with(|h| write_struct(h, s));
    }
    for g in p.globals() {
        h.part(g.name.as_bytes());
        h.part_with(|h| write_type(h, &g.ty));
    }
    h.finish()
}

/// Fingerprint the whole program: declarations plus every function, in
/// declaration order. Two programs with equal fingerprints pretty-print
/// identically.
pub fn fingerprint_program(p: &Program) -> u64 {
    let mut h = Fnv1a::new();
    h.part_u64(fingerprint_decls(p));
    for f in p.functions() {
        h.part(f.name.as_bytes());
        h.part_u64(fingerprint_fn(f));
    }
    h.finish()
}

/// Per-function fingerprints, keyed by function name (sorted). The diff
/// of two of these maps is the set of dirty functions between versions.
pub fn fn_fingerprints(p: &Program) -> BTreeMap<String, u64> {
    p.functions().map(|f| (f.name.to_string(), fingerprint_fn(f))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "struct S { ok: bool }\n\
         global out: map<str, int>;\n\
         fn act(e: S, tag: str) { out.put(tag, 1); }\n\
         fn drive(e: S) { if (e != null) { act(e, \"t\"); } }\n";

    #[test]
    fn formatting_is_ignored_but_semantics_are_not() {
        let a = Program::parse_single("m", SRC).expect("a");
        // Same code, different whitespace.
        let b = Program::parse_single("m", &SRC.replace("{ if", "{\n    if")).expect("b");
        assert_eq!(fingerprint_program(&a), fingerprint_program(&b));
        assert_eq!(fn_fingerprints(&a), fn_fingerprints(&b));
        // One guard changed: only that function's fingerprint moves.
        let c = Program::parse_single("m", &SRC.replace("e != null", "e == null")).expect("c");
        assert_ne!(fingerprint_program(&a), fingerprint_program(&c));
        let fa = fn_fingerprints(&a);
        let fc = fn_fingerprints(&c);
        assert_eq!(fa["act"], fc["act"]);
        assert_ne!(fa["drive"], fc["drive"]);
    }

    #[test]
    fn struct_and_global_changes_move_the_decl_hash() {
        let a = Program::parse_single("m", SRC).expect("a");
        let b =
            Program::parse_single("m", &SRC.replace("ok: bool", "ok: bool, n: int")).expect("b");
        assert_ne!(fingerprint_decls(&a), fingerprint_decls(&b));
        assert_ne!(fingerprint_program(&a), fingerprint_program(&b));
        // Function bodies did not change.
        assert_eq!(fn_fingerprints(&a), fn_fingerprints(&b));
    }
}
