//! Seeded mutation of corpus SIR sources: the front end is a trust
//! boundary (a gate loads whatever `.sir` files a change ships), so no
//! malformed source may panic it, and whatever it does accept must
//! print back to canonical source that parses to the same thing.
//!
//! Each case takes one corpus module and applies one to three seeded
//! mutations — byte-range splices, deletions, multi-byte UTF-8 inserts,
//! parentheses around a random range, and an opened-but-never-closed
//! string literal or block comment — then checks:
//!
//! - `parse_module` and `check_program` return instead of panicking;
//! - when the mutant parses, print∘parse is a fixed point: its canonical
//!   rendering reparses and renders to the same bytes.
//!
//! The case count keeps the whole slice near a second in a debug build.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lisa_corpus::all_cases;
use lisa_lang::pretty::print_module;
use lisa_lang::{check_program, parse_module, Program};
use lisa_util::Prng;

const SEED: u64 = 0x5152_0001;
const CASES: usize = 6000;

/// Printable multi-byte characters: two-, three- and four-byte UTF-8.
const WIDE: [&str; 6] = ["é", "ü", "→", "✓", "日本", "🦀"];

/// A random char boundary of `s` (0 and `s.len()` included).
fn boundary(rng: &mut Prng, s: &str) -> usize {
    let mut at = rng.gen_index(s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// A random range of `s` on char boundaries, at most `max` bytes long.
fn range(rng: &mut Prng, s: &str, max: usize) -> (usize, usize) {
    let lo = boundary(rng, s);
    let mut hi = (lo + 1 + rng.gen_index(max)).min(s.len());
    while !s.is_char_boundary(hi) {
        hi += 1;
    }
    (lo, hi)
}

fn mutate(rng: &mut Prng, src: &mut String) -> &'static str {
    match rng.gen_index(7) {
        0 => {
            let (lo, hi) = range(rng, src, 24);
            let piece = src[lo..hi].to_string();
            let at = boundary(rng, src);
            src.insert_str(at, &piece);
            "splice"
        }
        1 => {
            let (lo, hi) = range(rng, src, 12);
            src.replace_range(lo..hi, "");
            "delete"
        }
        2 => {
            let at = boundary(rng, src);
            let wide = WIDE[rng.gen_index(WIDE.len())];
            src.insert_str(at, wide);
            "utf8"
        }
        3 => {
            // Inside an existing literal, where UTF-8 must survive.
            let quotes: Vec<usize> = src.match_indices('"').map(|(i, _)| i + 1).collect();
            if quotes.is_empty() {
                return "utf8-literal (none)";
            }
            let at = *rng.pick(&quotes);
            let wide = WIDE[rng.gen_index(WIDE.len())];
            src.insert_str(at, wide);
            "utf8-literal"
        }
        4 => {
            let at = boundary(rng, src);
            src.insert(at, '"');
            "open-string"
        }
        5 => {
            let (lo, hi) = range(rng, src, 24);
            src.insert(hi, ')');
            src.insert(lo, '(');
            "parenthesize"
        }
        _ => {
            let at = boundary(rng, src);
            src.insert_str(at, "/*");
            "open-comment"
        }
    }
}

#[test]
fn mutated_sources_never_panic_and_accepted_ones_print_to_a_fixed_point() {
    let mut sources: Vec<String> = Vec::new();
    for case in all_cases() {
        for v in case.versions.all() {
            for m in &v.program.modules {
                if !sources.iter().any(|s| *s == m.source) {
                    sources.push(m.source.to_string());
                }
            }
        }
    }
    let mut rng = Prng::seed_from_u64(SEED);
    let mut accepted = 0;
    for case in 0..CASES {
        let mut src = rng.pick(&sources).clone();
        let rounds = 1 + rng.gen_index(3);
        let ops: Vec<&str> = (0..rounds).map(|_| mutate(&mut rng, &mut src)).collect();
        let what = || format!("case {case} ({}):\n{src}", ops.join(", "));
        let parsed = catch_unwind(AssertUnwindSafe(|| parse_module("m", &src)))
            .unwrap_or_else(|_| panic!("parse_module panicked on {}", what()));
        let Ok(module) = parsed else { continue };
        accepted += 1;
        let printed = print_module(&module);
        let reparsed = parse_module("m", &printed).unwrap_or_else(|e| {
            panic!("printed mutant does not reparse: {e}\n--- printed ---\n{printed}\n{}", what())
        });
        assert_eq!(print_module(&reparsed), printed, "print∘parse moved on {}", what());
        if let Ok(program) = Program::from_modules(vec![module]) {
            catch_unwind(AssertUnwindSafe(|| check_program(&program)))
                .unwrap_or_else(|_| panic!("check_program panicked on {}", what()));
        }
    }
    // The slice must exercise both sides: most mutants are rejected, but
    // enough parse to test the fixed point.
    assert!(accepted > CASES / 20 && accepted < CASES, "accepted {accepted} of {CASES}");
}
