//! Allocation ceiling for the SIR front end.
//!
//! Every gate loads its version from source: `load_system` parses and
//! type-checks the program, and the rule-report memo key hashes the
//! program's fingerprint. A re-gate of an unchanged version spends most
//! of its time there, so the heap traffic of one load is paid on every
//! gate. A counting global allocator tallies the allocations made on
//! this thread while each corpus version is parsed, checked and
//! fingerprinted, and the average must stay under a fixed ceiling. The
//! binary holds a single test so no other test thread shares the
//! allocator while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lisa_corpus::all_cases;
use lisa_lang::{check_program, fingerprint_program, Program};

/// Average allocations allowed per corpus version: the 109.4 measured
/// when identifiers and string literals became names sharing their
/// module's source text, plus 5%. It was 231.7 before, and 321.6 before
/// the front end stopped copying identifiers, types and names into its
/// tokens, scopes and indexes.
const CEILING: f64 = 115.0;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn corpus_front_end_stays_under_the_allocation_ceiling() {
    let (mut versions, mut total) = (0u64, 0u64);
    for case in all_cases() {
        for v in case.versions.all() {
            let sources: Vec<(&str, &str)> =
                v.program.modules.iter().map(|m| (m.name.as_str(), m.source.as_str())).collect();
            let before = allocs();
            let program = Program::parse(&sources).expect("corpus version parses");
            let errors = check_program(&program);
            let fp = fingerprint_program(&program);
            total += allocs() - before;
            assert!(errors.is_empty(), "{}: {errors:?}", v.label);
            assert_eq!(fp, fingerprint_program(&v.program), "{}", v.label);
            versions += 1;
        }
    }
    assert!(versions > 0, "the corpus has versions");
    let avg = total as f64 / versions as f64;
    println!("{versions} versions, {total} allocations, {avg:.1} per version");
    assert!(
        avg <= CEILING,
        "parse + check + fingerprint average {avg:.1} allocations per version, ceiling {CEILING}"
    );
}
