//! Allocation ceiling for a warm re-gate.
//!
//! Re-gating an unchanged version against the `GateCache` its previous
//! gate filled answers every rule from the memo, so what is left is the
//! front end: `load_system` reads, parses and type-checks the version,
//! `load_rules` parses the rules file, and `Gate::run` keys the memo and
//! hands back the memoized reports. Each corpus version is written to
//! disk as `.sir` files beside its case's mined rule as an
//! authoring-template rules file, gated once to fill a fresh cache, and
//! then gated again while a counting global allocator tallies the
//! allocations made on this thread, from `load_system` until the report
//! is dropped: the sequence a `lisa gate` re-run makes, minus process
//! start. The average must stay under a fixed ceiling. The binary holds a
//! single test so no other test thread shares the allocator while it
//! counts; the gate runs at `--workers 1`, on this thread.

// Only `mined_rule` is used here; the module is shared with the trace tests.
#[allow(dead_code)]
mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use common::mined_rule;
use lisa::{Gate, GateCache, GateConfig, GateDecision, RuleRegistry};
use lisa_analysis::TargetSpec;
use lisa_corpus::all_cases;
use lisa_oracle::SemanticRule;

/// Average allocations allowed per warm re-gate: the 194.8 measured once
/// identifiers and string literals shared their module's source text
/// and a memo hit shared the memoized report's lists, plus 5%. It was
/// 363.4 before, when every identifier occurrence was its own string and
/// a hit deep-copied its report and parsed the rule's condition again.
const CEILING: f64 = 205.0;

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

/// The authoring-template sentence `load_rules` reads back as `rule`.
fn template(rule: &SemanticRule) -> String {
    match &rule.target {
        TargetSpec::Call { callee } => {
            format!("when calling {callee}, require {}", rule.condition_src)
        }
        TargetSpec::BuiltinInSync { name } => format!("never call {name} while holding a lock"),
        TargetSpec::BuiltinInCaller { name, caller } => {
            format!("never call {name} inside {caller}")
        }
        other => panic!("{}: target {other} has no authoring template", rule.id),
    }
}

/// One gate as `lisa gate --system <system> --rules <rules> --workers 1`
/// runs it, against `cache`.
fn gate_once(cfg: &GateConfig, system: &str, rules: &str, cache: &Arc<GateCache>) -> GateDecision {
    let version = lisa::load_system(system, &cfg.pipeline.test_prefix).expect("version loads");
    let rules = lisa::load_rules(rules).expect("rules load");
    let ids: Vec<String> = rules.iter().map(|r| r.id.clone()).collect();
    let mut registry = RuleRegistry::new();
    for r in &rules {
        registry.register(r.clone());
    }
    Gate::new(&registry)
        .config(cfg.pipeline.clone())
        .workers(cfg.workers)
        .options(cfg.gate_options(&ids))
        .cache(cache)
        .run(&version)
        .decision
}

fn write(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

#[test]
fn warm_regates_stay_under_the_allocation_ceiling() {
    let flags = HashMap::from([("workers".to_string(), "1".to_string())]);
    let cfg = GateConfig::from_args(&flags).expect("gate flags parse");
    let root = std::env::temp_dir().join(format!("lisa-warm-regate-{}", std::process::id()));
    let (mut gates, mut total) = (0u64, 0u64);
    for case in all_cases() {
        let dir = root.join(&case.meta.id);
        std::fs::create_dir_all(&dir).expect("mkdir case");
        let rules = dir.join("rules.txt");
        write(
            &rules,
            &format!("# {}\n{}\n", case.meta.id, template(&mined_rule(&case))),
        );
        let rules = rules.to_string_lossy().into_owned();
        for (k, v) in case.versions.all().into_iter().enumerate() {
            let system = dir.join(format!("v{k}"));
            std::fs::create_dir_all(&system).expect("mkdir version");
            for (i, module) in v.program.modules.iter().enumerate() {
                let file = system.join(format!("{i:02}-{}.sir", module.name.replace('/', "__")));
                write(&file, &lisa_lang::pretty::print_module(module));
            }
            let system = system.to_string_lossy().into_owned();
            let cache = cfg.gate_cache().expect("the gate cache is on by default");
            let cold = gate_once(&cfg, &system, &rules, &cache);
            let misses = cache.misses();
            let before = allocs();
            let warm = gate_once(&cfg, &system, &rules, &cache);
            total += allocs() - before;
            assert_eq!(
                warm, cold,
                "{}: a re-gate decides as the first gate did",
                v.label
            );
            assert_eq!(
                cache.misses(),
                misses,
                "{}: the re-gate is answered from the memo",
                v.label
            );
            gates += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(gates, 64, "16 cases of 4 versions");
    let avg = total as f64 / gates as f64;
    println!("{gates} warm re-gates, {total} allocations, {avg:.1} per gate");
    assert!(
        avg <= CEILING,
        "warm re-gates average {avg:.1} allocations, ceiling {CEILING}"
    );
}
