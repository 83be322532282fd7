//! Allocation ceiling for concolic test runs.
//!
//! Every gate runs each selected test concolically for every rule, so the
//! heap traffic of one run is paid thousands of times per gate. A counting
//! global allocator tallies the allocations made on this thread while the
//! corpus's tests run, one test per batch as the gate schedules them, and
//! the average must stay under a fixed ceiling. The binary holds a single
//! test so no other test thread shares the allocator while it counts.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::{mined_rule, rule_aliases};
use lisa_concolic::{run_tests_budgeted, HarnessBudget, Policy};
use lisa_corpus::all_cases;

/// Average allocations allowed per test run: the 41.4 measured once the
/// interpreter kept globals by slot and the tracer borrowed its function
/// names from the program, plus 5%. It was 50.6 before.
const CEILING: f64 = 43.5;

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
fn corpus_test_runs_stay_under_the_allocation_ceiling() {
    let budget = HarnessBudget::default();
    let (mut runs, mut total) = (0u64, 0u64);
    for case in all_cases() {
        let rule = mined_rule(&case);
        for v in case.versions.all() {
            let aliases = rule_aliases(v, &rule);
            for test in &v.tests {
                let before = allocs();
                let outcome = run_tests_budgeted(
                    &v.program,
                    std::slice::from_ref(test),
                    &rule.target,
                    &aliases,
                    &Policy::RelevantOnly,
                    &budget,
                );
                total += allocs() - before;
                runs += outcome.runs.len() as u64;
            }
        }
    }
    assert!(runs > 0, "the corpus has tests");
    let avg = total as f64 / runs as f64;
    println!("{runs} test runs, {total} allocations, {avg:.1} per run");
    assert!(
        avg <= CEILING,
        "concolic test runs average {avg:.1} allocations, ceiling {CEILING}"
    );
}
