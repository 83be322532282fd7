//! Cross-cutting consistency properties over the full corpus:
//! configuration choices that must not change *verdicts* (only cost),
//! and every reported violation standing when judged again.

use lisa::{Pipeline, PipelineConfig, TestSelection};
use lisa_concolic::Policy;
use lisa_corpus::all_cases;
use lisa_oracle::{infer_rules, rescope, Scope, SemanticRule};

fn mined_rule(case: &lisa_corpus::Case) -> SemanticRule {
    let rule = infer_rules(case.original_ticket())
        .expect("inference")
        .rules
        .into_iter()
        .next()
        .expect("rule");
    match &rule.target {
        lisa_analysis::TargetSpec::Call { .. } => rule,
        _ => rescope(&rule, Scope::Generalized).expect("rescope"),
    }
}

fn pipeline(selection: TestSelection, policy: Policy) -> Pipeline {
    Pipeline::new(PipelineConfig { selection, policy, ..PipelineConfig::default() })
}

#[test]
fn pruning_policy_never_changes_verdicts() {
    // E8's headline invariant, asserted corpus-wide on every version.
    for case in all_cases() {
        let rule = mined_rule(&case);
        for version in case.versions.all() {
            let pruned =
                pipeline(TestSelection::All, Policy::RelevantOnly).check_rule(version, &rule);
            let full =
                pipeline(TestSelection::All, Policy::RecordAll).check_rule(version, &rule);
            assert_eq!(
                pruned.has_violation(),
                full.has_violation(),
                "{}/{}: pruning changed the verdict",
                case.meta.id,
                version.label
            );
            assert_eq!(pruned.verified_count(), full.verified_count());
            assert!(pruned.stats.branches_recorded <= full.stats.branches_recorded);
        }
    }
}

#[test]
fn rag_selection_matches_exhaustive_on_regressed_versions() {
    // E9's operating point: RAG top-3 must not lose any recurrence the
    // exhaustive run catches.
    for case in all_cases() {
        let rule = mined_rule(&case);
        let version = &case.versions.regressed;
        let rag = pipeline(TestSelection::Rag { k: 3 }, Policy::RelevantOnly)
            .check_rule(version, &rule);
        let all =
            pipeline(TestSelection::All, Policy::RelevantOnly).check_rule(version, &rule);
        assert_eq!(
            rag.has_violation(),
            all.has_violation(),
            "{}: RAG top-3 lost the recurrence",
            case.meta.id
        );
        assert!(rag.stats.tests_executed <= all.stats.tests_executed);
    }
}

#[test]
fn every_corpus_violation_still_violates_when_judged_again() {
    // Judge every violation's π from the corpus sweep again, straight
    // through the solver: each must still violate its rule's condition.
    let mut violations = 0;
    for case in all_cases() {
        let rule = mined_rule(&case);
        let report = pipeline(TestSelection::All, Policy::RelevantOnly)
            .check_rule(&case.versions.regressed, &rule);
        for v in report.violations() {
            violations += 1;
            assert!(
                lisa_smt::violates(&v.pi, &rule.condition).is_some(),
                "{}: violation must re-judge as violating",
                case.meta.id
            );
        }
    }
    assert!(violations >= 16, "one violation per case expected, got {violations}");
}

#[test]
fn gate_workers_do_not_change_decisions() {
    use lisa::{Gate, RuleRegistry};
    let mut registry = RuleRegistry::new();
    for case in all_cases().into_iter().take(6) {
        registry.register(mined_rule(&case));
    }
    let case = lisa_corpus::case("zk-ephemeral").expect("case");
    let config =
        PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() };
    let decisions: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            Gate::new(&registry).config(config.clone()).workers(w).run(&case.versions.regressed).decision
        })
        .collect();
    assert!(decisions.windows(2).all(|w| w[0] == w[1]), "{decisions:?}");
}
