//! Corpus integrity: structural invariants that every case must keep as
//! the corpus grows — versions parse/typecheck, tickets carry real
//! diffs, recurrence tickets also infer ground-truth-equivalent rules,
//! and every module roundtrips through the pretty-printer.

use lisa_corpus::all_cases;
use lisa_lang::pretty::print_module;
use lisa_lang::{parse_module, Program};
use lisa_oracle::infer_rules;

#[test]
fn every_module_roundtrips_through_the_pretty_printer() {
    for case in all_cases() {
        for v in case.versions.all() {
            for module in &v.program.modules {
                let printed = print_module(module);
                let reparsed = parse_module(&module.name, &printed).unwrap_or_else(|e| {
                    panic!(
                        "{}/{}/{}: printed module does not reparse: {e}\n{printed}",
                        case.meta.id, v.label, module.name
                    )
                });
                assert_eq!(
                    reparsed.functions.len(),
                    module.functions.len(),
                    "{}/{}/{}",
                    case.meta.id,
                    v.label,
                    module.name
                );
                // The printed module must still typecheck in context of
                // the sibling modules.
                let mut modules = v.program.modules.clone();
                for m in &mut modules {
                    if m.name == module.name {
                        *m = reparsed.clone();
                    }
                }
                let p = Program::from_modules(modules).expect("rebuild");
                let errs = lisa_lang::check_program(&p);
                assert!(errs.is_empty(), "{}: {errs:?}", case.meta.id);
            }
        }
    }
}

#[test]
fn every_ticket_has_a_real_patch_and_discussion_or_description() {
    for case in all_cases() {
        for t in &case.tickets {
            assert!(t.patch_size() > 0, "{}: ticket {} has an empty diff", case.meta.id, t.id);
            assert!(
                !t.description.is_empty() || !t.discussion.is_empty(),
                "{}: ticket {} carries no narrative",
                case.meta.id,
                t.id
            );
        }
    }
}

#[test]
fn recurrence_tickets_also_infer_ground_truth_rules() {
    // Not just the original ticket: the second fix teaches the same
    // semantic (often how real corpora accumulate evidence).
    for case in all_cases() {
        for t in case.tickets.iter().skip(1) {
            let out = infer_rules(t)
                .unwrap_or_else(|e| panic!("{}: ticket {}: {e}", case.meta.id, t.id));
            let truth = lisa_smt::parse_cond(&case.ground_truth.condition_src).expect("truth");
            let matched = out.rules.iter().any(|r| {
                // Builtin-family rules mine in caller-specific form and
                // generalize afterwards (Figure 6).
                let r = match &r.target {
                    lisa_analysis::TargetSpec::Call { .. } => r.clone(),
                    _ => lisa_oracle::rescope(r, lisa_oracle::Scope::Generalized)
                        .expect("rescope"),
                };
                r.target == case.ground_truth.target
                    && lisa_smt::equivalent(&r.condition, &truth)
            });
            assert!(
                matched,
                "{}: ticket {} inferred {:?}, expected `{}`",
                case.meta.id,
                t.id,
                out.rules.iter().map(|r| r.condition.to_string()).collect::<Vec<_>>(),
                case.ground_truth.condition_src
            );
        }
    }
}

#[test]
fn buggy_versions_actually_exhibit_the_failure() {
    // On every buggy version, the unsafe state reaches the action on the
    // original path — the incident is reproducible, not hypothetical.
    use lisa_analysis::TargetSpec;
    use lisa_concolic::{ConcolicTracer, Policy};
    use lisa_lang::{Interp, Value};
    for case in all_cases() {
        let TargetSpec::Call { callee } = &case.ground_truth.target else {
            continue; // the blocking-io case is asserted separately
        };
        // Drive the buggy version's own tests; at least one arrival must
        // exist (tests exercise the feature).
        let v = &case.versions.buggy;
        let target = TargetSpec::Call { callee: callee.clone() };
        let aliases = Default::default();
        let mut total_hits = 0;
        for t in &v.tests {
            let mut interp = Interp::new(&v.program);
            let mut tracer = ConcolicTracer::new(&target, &aliases, Policy::RecordAll);
            let _ = interp.call(&t.entry, Vec::<Value>::new(), &mut tracer);
            total_hits += tracer.hits.len();
        }
        assert!(
            total_hits > 0,
            "{}: no test reaches `{}` on the buggy version",
            case.meta.id,
            callee
        );
    }
}

#[test]
fn version_labels_are_consistent() {
    for case in all_cases() {
        let labels: Vec<&str> =
            case.versions.all().iter().map(|v| v.label.as_str()).collect();
        assert_eq!(labels, vec!["v1-buggy", "v2-fixed", "v3-regressed", "v4-latest"]);
    }
}

#[test]
fn test_summaries_are_informative() {
    // RAG needs real summaries: non-empty, distinct from bare names.
    for case in all_cases() {
        for v in case.versions.all() {
            for t in &v.tests {
                assert!(!t.summary.is_empty(), "{}: {} has no summary", case.meta.id, t.name);
                assert!(
                    t.summary.split_whitespace().count() >= 3,
                    "{}: summary of {} too thin: {:?}",
                    case.meta.id,
                    t.name,
                    t.summary
                );
            }
        }
    }
}
