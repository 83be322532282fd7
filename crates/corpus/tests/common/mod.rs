//! Shared set-up for the corpus trace tests: the rule each case mines
//! from its original ticket, and that rule's placeholder aliases on a
//! version.

use lisa_analysis::{chain_aliases, execution_tree_filtered, AliasMap, CallGraph, TargetSpec};
use lisa_concolic::SystemVersion;
use lisa_corpus::Case;
use lisa_oracle::{infer_rules, rescope, Scope, SemanticRule};

/// The case's first mined rule; builtin-family rules are generalized, as
/// the end-to-end corpus sweep does before enforcement.
pub fn mined_rule(case: &Case) -> SemanticRule {
    let out = infer_rules(case.original_ticket())
        .unwrap_or_else(|e| panic!("{}: inference failed: {e}", case.meta.id));
    let rule = out.rules.into_iter().next().expect("at least one rule");
    match &rule.target {
        TargetSpec::Call { .. } => rule,
        _ => rescope(&rule, Scope::Generalized).expect("builtin rules rescope"),
    }
}

/// The rule's placeholder aliases, unioned across the static chains the
/// way the pipeline builds them.
pub fn rule_aliases<'a>(version: &'a SystemVersion, rule: &'a SemanticRule) -> AliasMap<'a> {
    let program = &version.program;
    let graph = CallGraph::build(program);
    let tree = execution_tree_filtered(&graph, &rule.target, Default::default(), &|f| {
        f.starts_with("test_")
    });
    let mut aliases = AliasMap::default();
    for chain in &tree.chains {
        aliases.merge(&chain_aliases(
            program,
            &graph,
            chain,
            rule.target.callee(),
            &rule.placeholder_roots,
        ));
    }
    for root in &rule.placeholder_roots {
        if program.global(root).is_some() {
            aliases.insert("*", root, root);
        }
    }
    aliases
}
