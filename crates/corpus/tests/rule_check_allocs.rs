//! Allocation ceiling for the uncached rule check.
//!
//! A cold gate runs `Pipeline::check_rule` once per rule: it builds the
//! call graph and the execution tree, maps placeholders, runs every
//! selected test concolically and solves each arrival's violation
//! query. A counting global allocator tallies the allocations made on
//! this thread while each corpus version is checked against the rule
//! mined from its case, under `lisa gate`'s pipeline configuration and
//! with no memo, and the average must stay under a fixed ceiling. The
//! binary holds a single test so no other test thread shares the
//! allocator while it counts.

// Only `mined_rule` is used here; the module is shared with the trace tests.
#[allow(dead_code)]
mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use common::mined_rule;
use lisa::{GateConfig, Pipeline};
use lisa_corpus::all_cases;

/// Average allocations allowed per (version, rule) check: the 366.5
/// measured once each violation query consumed the NNF of its path
/// condition instead of cloning its atoms again, plus 5%. It was 390.5
/// before, and 683.0 before the call graph, alias maps, tracer,
/// interpreter globals and solver borrowed their names and atoms from
/// the program and the query.
const CEILING: f64 = 385.0;

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
fn uncached_rule_checks_stay_under_the_allocation_ceiling() {
    // `lisa gate` with no flags: every test selected, default budgets.
    let config = GateConfig::from_args(&HashMap::new()).expect("default gate flags").pipeline;
    let pipeline = Pipeline::new(config);
    let (mut checks, mut total) = (0u64, 0u64);
    for case in all_cases() {
        let rule = mined_rule(&case);
        for v in case.versions.all() {
            let before = allocs();
            let report = pipeline.check_rule(v, &rule);
            total += allocs() - before;
            assert!(report.stats.tests_executed > 0, "{}: no test ran", v.label);
            checks += 1;
        }
    }
    assert_eq!(checks, 64, "16 cases of 4 versions");
    let avg = total as f64 / checks as f64;
    println!("{checks} rule checks, {total} allocations, {avg:.1} per check");
    assert!(
        avg <= CEILING,
        "uncached rule checks average {avg:.1} allocations, ceiling {CEILING}"
    );
}
