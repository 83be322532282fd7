//! The LISA pipeline: assert one semantic rule across a system version.
//!
//! Implements the full §3.2 loop (Figure 5, right half):
//!
//! 1. build the call graph and the execution tree rooted at the rule's
//!    target statement,
//! 2. compute placeholder aliases per chain (the variable-mapping step),
//! 3. select concrete inputs: RAG top-k over test embeddings per chain
//!    (or all tests / random-k for the ablation baselines),
//! 4. run the selected tests concolically, recording relevant branch
//!    constraints only (policy-controlled),
//! 5. for every arrival at the target, decide
//!    `SAT(π ∧ ¬checker)` — the complement rule: violation with witness,
//! 6. fold arrivals onto static chains: Verified / Violated / NotCovered,
//!    with the fixed path expected to verify (sanity check).

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use lisa_analysis::{
    chain_aliases, execution_tree_filtered, AliasMap, CallGraph, TargetSpec, TreeLimits,
};
use lisa_concolic::{
    run_tests_budgeted, HarnessBudget, Policy, SystemVersion, TargetHit, TestCase,
};
use lisa_oracle::rag::{describe_path, TestIndex};
use lisa_oracle::SemanticRule;
use lisa_smt::ViolationOutcome;
use lisa_util::Fnv1a;

use crate::error::LisaError;
use crate::gate::GateCache;
use crate::verdict::{ChainReport, ChainVerdict, PipelineStats, RuleReport, Violation};

/// How tests are chosen as concolic inputs.
#[derive(Debug, Clone)]
pub enum TestSelection {
    /// RAG: top-k by embedding similarity per chain (the paper's design).
    Rag { k: usize },
    /// Every test (exhaustive baseline).
    All,
    /// Random k per chain, seeded (ablation baseline).
    Random { k: usize, seed: u64 },
}

/// Resource budgets for one rule check. All default to `None`
/// (unbounded), which preserves the classic pipeline behavior; gate
/// callers set them to guarantee the check terminates promptly even on
/// adversarial rules or tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResourceBudgets {
    /// SAT-core conflict budget per violation query; exhaustion makes the
    /// query Unknown and the affected chain degrades to not-covered.
    pub max_solver_conflicts: Option<u64>,
    /// Interpreter step ceiling per executed test.
    pub max_steps_per_test: Option<u64>,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    pub policy: Policy,
    pub selection: TestSelection,
    pub tree_limits: TreeLimits,
    /// Functions with this prefix are test entry points, not system
    /// request paths; the execution tree does not climb into them.
    pub test_prefix: String,
    /// Resource budgets applied to every rule check.
    pub budgets: ResourceBudgets,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            policy: Policy::RelevantOnly,
            selection: TestSelection::Rag { k: 4 },
            tree_limits: TreeLimits::default(),
            test_prefix: "test_".to_string(),
            budgets: ResourceBudgets::default(),
        }
    }
}

/// The pipeline.
#[derive(Debug, Default)]
pub struct Pipeline {
    config: PipelineConfig,
    /// The rule-report memo shared with other pipelines, and the hash of
    /// `config` that every key this pipeline builds carries; `None` =
    /// every rule checked fresh.
    memo: Option<(Arc<GateCache>, u64)>,
}

impl Pipeline {
    pub fn new(config: PipelineConfig) -> Pipeline {
        Pipeline { config, memo: None }
    }

    /// A pipeline whose rule reports are memoized in `cache`. A report
    /// is keyed by an FNV-1a hash of everything the check reads: the
    /// version's fingerprint ([`SystemVersion::fingerprint`]: the
    /// program plus each test's name, summary and entry in order), the
    /// rule's id, description, target and condition source, and this
    /// configuration. The version label is not part of a report, so it
    /// is not part of the key. Caching is transparent: reports are
    /// identical to an uncached pipeline's, field for field, apart from
    /// `stats.wall`.
    pub fn with_cache(config: PipelineConfig, cache: Arc<GateCache>) -> Pipeline {
        let config_fp = config_hash(&config);
        Pipeline { config, memo: Some((cache, config_fp)) }
    }

    /// Same cache, different configuration (used by fault injection to
    /// swap budgets). The new configuration gets its own hash, so its
    /// reports never answer a check under the old one.
    pub(crate) fn reconfigured(&self, config: PipelineConfig) -> Pipeline {
        match &self.memo {
            Some((cache, _)) => Pipeline::with_cache(config, Arc::clone(cache)),
            None => Pipeline::new(config),
        }
    }

    /// The configuration every check of this pipeline runs under.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Assert `rule` over `version`. The rule is not validated: a rule
    /// whose condition source does not parse is checked by its parsed
    /// condition, and its report is not memoized.
    pub fn check_rule(&self, version: &SystemVersion, rule: &SemanticRule) -> RuleReport {
        self.check_memoized(version, None, rule, false)
            .expect("an unvalidated check never rejects its rule")
    }

    /// Result-based stage boundary for the gate: validate the rule before
    /// spending any execution budget on it, so malformed oracle output is
    /// a per-rule error rather than a downstream panic.
    pub fn try_check_rule(
        &self,
        version: &SystemVersion,
        rule: &SemanticRule,
    ) -> Result<RuleReport, LisaError> {
        self.try_check_rule_ctx(version, None, rule)
    }

    /// [`Pipeline::try_check_rule`], the gate's entry point.
    /// `version_fp`, when given, is `version.fingerprint()`, computed once
    /// for a whole gate.
    pub(crate) fn try_check_rule_ctx(
        &self,
        version: &SystemVersion,
        version_fp: Option<u64>,
        rule: &SemanticRule,
    ) -> Result<RuleReport, LisaError> {
        self.check_memoized(version, version_fp, rule, true)
    }

    /// One rule check, answered from the memo when it may be. A miss
    /// stores its report unless the rule fails [`validate`]. The
    /// version's fingerprint is computed here only when the caller did
    /// not pass it in.
    ///
    /// Every memoized report therefore belongs to a valid rule, and the
    /// key covers all that validation reads, so a hit skips validation.
    /// Otherwise a `validated` check returns the rule's validation error
    /// instead of checking it. A hit shares the memoized report's chains,
    /// tests and violations; only its header strings are copied.
    fn check_memoized(
        &self,
        version: &SystemVersion,
        version_fp: Option<u64>,
        rule: &SemanticRule,
        validated: bool,
    ) -> Result<RuleReport, LisaError> {
        let Some((cache, config_fp)) = &self.memo else {
            if validated {
                validate(rule)?;
            }
            return Ok(self.check_uncached(version, rule));
        };
        let started = Instant::now();
        let version_fp = version_fp.unwrap_or_else(|| version.fingerprint());
        let key = memo_key(*config_fp, version_fp, rule);
        if let Some(hit) = cache.get(key) {
            let mut report = RuleReport::clone(&hit);
            report.stats.wall = started.elapsed();
            return Ok(report);
        }
        let valid = match validate(rule) {
            Err(e) if validated => return Err(e),
            valid => valid.is_ok(),
        };
        let report = self.check_uncached(version, rule);
        if valid {
            cache.insert(key, report.clone());
        }
        Ok(report)
    }

    fn check_uncached(&self, version: &SystemVersion, rule: &SemanticRule) -> RuleReport {
        let started = Instant::now();
        let mut rule_span = lisa_telemetry::span_with("pipeline.rule", rule.id.as_str());
        let budgets = self.config.budgets;
        let mut stats = PipelineStats::default();
        let program = &version.program;
        let graph = CallGraph::build(program);
        let prefix = &self.config.test_prefix;
        let tree = execution_tree_filtered(&graph, &rule.target, self.config.tree_limits, &|f| {
            f.starts_with(prefix)
        });
        stats.static_chains = tree.chains.len() as u64;

        // Placeholder aliases, unioned across chains (constraint renaming
        // is (function, path)-keyed, so the union is chain-safe).
        let mut aliases = AliasMap::default();
        {
            let _s = lisa_telemetry::span("pipeline.aliases");
            for chain in &tree.chains {
                aliases.merge(&chain_aliases(
                    program,
                    &graph,
                    chain,
                    rule.target.callee(),
                    &rule.placeholder_roots,
                ));
            }
            // Builtin rules have no parameter aliases; globals still resolve.
            for root in &rule.placeholder_roots {
                if program.global(root).is_some() {
                    aliases.insert("*", root, root);
                }
            }
        }

        let selected = {
            let _s = lisa_telemetry::span("pipeline.select");
            self.select_tests(version, &tree, &graph, rule)
        };
        stats.tests_selected = selected.len() as u64;

        // Concolic execution of every selected test, in one batch, under
        // the step budget.
        let mut concolic_span = lisa_telemetry::span("concolic.run");
        let budget = HarnessBudget { max_steps_per_test: budgets.max_steps_per_test, wall: None };
        let runs = run_tests_budgeted(
            program,
            &selected,
            &rule.target,
            &aliases,
            &self.config.policy,
            &budget,
        )
        .runs;
        stats.tests_executed = runs.len() as u64;
        concolic_span.arg("tests", stats.tests_selected);
        concolic_span.arg("executed", stats.tests_executed);
        drop(concolic_span);

        // Judge every arrival; fold onto static chains.
        let judge_span = lisa_telemetry::span("pipeline.judge");
        let mut chain_reports: Vec<ChainReport> = tree
            .chains
            .iter()
            .map(|c| ChainReport {
                rendered: c.render(&graph),
                entry: c.entry.to_string(),
                functions: c.functions(&graph).map(str::to_string).collect(),
                verdict: ChainVerdict::NotCovered,
                covering_tests: Vec::new(),
            })
            .collect();

        // All of a rule's arrivals share one SolverSession: ¬checker is
        // normalized once, and each π, read in place, is solved on its
        // own fresh solver.
        let session = lisa_smt::SolverSession::new(&rule.condition);
        let mut off_tree_violations = Vec::new();
        let mut unmatched_hits = 0u64;
        // Chains that saw an arrival the solver could not decide; they
        // must not end up Verified no matter the arrival order.
        let mut uncertain = vec![false; chain_reports.len()];
        for run in &runs {
            stats.branches_seen += run.stats.branches_seen;
            stats.branches_recorded += run.stats.branches_recorded;
            stats.target_hits += run.stats.target_hits;
            stats.interp_steps += run.steps;
            for hit in &run.hits {
                stats.solver_calls += 1;
                let outcome = session.violates_budgeted(&hit.pi, budgets.max_solver_conflicts);
                if matches!(outcome, ViolationOutcome::Unknown { .. }) {
                    stats.solver_unknowns += 1;
                }
                let violation = |witness| Violation {
                    pi: hit.pi.clone(),
                    witness,
                    test: run.test.clone(),
                    chain: hit.chain.clone(),
                };
                let Some(idx) = match_chain(&chain_reports, hit) else {
                    unmatched_hits += 1;
                    if let ViolationOutcome::Violated(witness) = outcome {
                        off_tree_violations.push(violation(witness));
                    }
                    continue;
                };
                let report = &mut chain_reports[idx];
                if !report.covering_tests.contains(&run.test) {
                    report.covering_tests.push(run.test.clone());
                }
                match outcome {
                    ViolationOutcome::Violated(witness) => {
                        report.verdict = ChainVerdict::Violated(violation(witness));
                    }
                    ViolationOutcome::Verified => {
                        if matches!(report.verdict, ChainVerdict::NotCovered) {
                            report.verdict = ChainVerdict::Verified;
                        }
                    }
                    ViolationOutcome::Unknown { .. } => uncertain[idx] = true,
                }
            }
        }

        // An undecided arrival leaves its chain not-covered rather than
        // verified (a Violated verdict from another arrival still wins).
        for (i, c) in chain_reports.iter_mut().enumerate() {
            if uncertain[i] && matches!(c.verdict, ChainVerdict::Verified) {
                c.verdict = ChainVerdict::NotCovered;
            }
        }

        drop(judge_span);
        let sanity_ok = chain_reports
            .iter()
            .any(|c| matches!(c.verdict, ChainVerdict::Verified));
        stats.wall = started.elapsed();
        if lisa_telemetry::metrics_enabled() {
            lisa_telemetry::counter_add("pipeline.rules_checked", 1);
            for c in &chain_reports {
                lisa_telemetry::counter_add(
                    match c.verdict {
                        ChainVerdict::Verified => "verdict.verified",
                        ChainVerdict::Violated(_) => "verdict.violated",
                        ChainVerdict::NotCovered => "verdict.not_covered",
                        ChainVerdict::EngineError { .. } => "verdict.engine_error",
                    },
                    1,
                );
            }
            lisa_telemetry::counter_add(
                "verdict.off_tree_violations",
                off_tree_violations.len() as u64,
            );
        }
        rule_span.arg("static_chains", stats.static_chains);
        rule_span.arg("tests_selected", stats.tests_selected);
        rule_span.arg("tests_executed", stats.tests_executed);
        rule_span.arg("target_hits", stats.target_hits);
        rule_span.arg("solver_calls", stats.solver_calls);
        rule_span.arg("solver_unknowns", stats.solver_unknowns);
        rule_span.arg("interp_steps", stats.interp_steps);
        RuleReport {
            rule_id: rule.id.clone(),
            rule_description: rule.description.clone(),
            target: rule.target.to_string(),
            condition: rule.condition_src.clone(),
            chains: chain_reports.into(),
            tests_selected: selected.iter().map(|t| t.name.clone()).collect(),
            sanity_ok,
            off_tree_violations: off_tree_violations.into(),
            unmatched_hits,
            unchecked: false,
            stats,
        }
    }

    /// The tests to run: the version's own list when every test is
    /// selected, a picked copy otherwise.
    fn select_tests<'v>(
        &self,
        version: &'v SystemVersion,
        tree: &lisa_analysis::ExecutionTree<'_>,
        graph: &CallGraph<'_>,
        rule: &SemanticRule,
    ) -> Cow<'v, [TestCase]> {
        match &self.config.selection {
            TestSelection::All => Cow::Borrowed(&version.tests),
            TestSelection::Random { k, seed } => {
                // Deterministic pseudo-random pick: stable shuffle by
                // hash(seed, name).
                let mut tests = version.tests.clone();
                tests.sort_by_key(|t| {
                    let mut h: u64 = *seed ^ 0x9e3779b97f4a7c15;
                    for b in t.name.bytes() {
                        h = h.wrapping_mul(0x100000001b3) ^ b as u64;
                    }
                    h
                });
                tests.truncate((*k).max(1) * tree.chains.len().max(1));
                Cow::Owned(tests)
            }
            TestSelection::Rag { k } => {
                let index = TestIndex::build(&version.test_summaries());
                let mut chosen: Vec<String> = Vec::new();
                for chain in &tree.chains {
                    let desc = describe_path(
                        chain.entry,
                        &chain.functions(graph).collect::<Vec<_>>(),
                        rule.target.callee(),
                        &rule.condition_src,
                    );
                    for s in index.query(&desc, *k) {
                        if !chosen.contains(&s.test) {
                            chosen.push(s.test);
                        }
                    }
                }
                Cow::Owned(
                    version.tests.iter().filter(|t| chosen.contains(&t.name)).cloned().collect(),
                )
            }
        }
    }
}

/// The gate's malformed-rule boundary: a rule may be checked only if its
/// condition source parses and its target names a callee.
fn validate(rule: &SemanticRule) -> Result<(), LisaError> {
    if let Err(e) = lisa_smt::parse_cond(&rule.condition_src) {
        return Err(LisaError::MalformedRule {
            rule_id: rule.id.clone(),
            detail: format!("condition {:?}: {e}", rule.condition_src),
        });
    }
    if rule.target.callee().is_empty() {
        return Err(LisaError::MalformedRule {
            rule_id: rule.id.clone(),
            detail: "empty target callee".to_string(),
        });
    }
    Ok(())
}

/// The hash of a pipeline configuration: part of every memo key, and of
/// a durable run's journal key (`service::gate_durable`).
pub(crate) fn config_hash(config: &PipelineConfig) -> u64 {
    use std::fmt::Write as _;
    // The same value as `fnv1a` over the rendered text: no delimiter.
    let mut h = Fnv1a::new();
    let _ = write!(h, "{config:?}");
    h.finish()
}

/// The memo key of one rule check (see [`Pipeline::with_cache`]). The
/// rule's parsed condition and placeholder roots are not hashed: both
/// are derived from its condition source.
fn memo_key(config_fp: u64, version_fp: u64, rule: &SemanticRule) -> u64 {
    let mut h = Fnv1a::new();
    h.part_u64(config_fp);
    h.part_u64(version_fp);
    h.part(rule.id.as_bytes()).part(rule.description.as_bytes());
    part_target(&mut h, &rule.target);
    h.part(rule.condition_src.as_bytes());
    h.finish()
}

/// Feed a rule target into a key: its variant's tag, then each name as a
/// part of its own, so no formatting change can split or merge keys.
fn part_target(h: &mut Fnv1a, target: &TargetSpec) {
    match target {
        TargetSpec::Call { callee } => h.part_u64(0).part(callee.as_bytes()),
        TargetSpec::Builtin { name } => h.part_u64(1).part(name.as_bytes()),
        TargetSpec::BuiltinInSync { name } => h.part_u64(2).part(name.as_bytes()),
        TargetSpec::BuiltinInCaller { name, caller } => {
            h.part_u64(3).part(name.as_bytes()).part(caller.as_bytes())
        }
    };
}

/// Match a dynamic arrival to a static chain: the static chain's function
/// sequence must be a suffix of the dynamic stack (after the harness and
/// test frames). Longest match wins.
fn match_chain(chains: &[ChainReport], hit: &TargetHit) -> Option<usize> {
    let dynamic = &hit.chain;
    let mut best: Option<(usize, usize)> = None; // (len, idx)
    for (i, c) in chains.iter().enumerate() {
        let fns = &c.functions;
        if fns.len() > dynamic.len() {
            continue;
        }
        let tail = &dynamic[dynamic.len() - fns.len()..];
        if tail == fns.as_slice() && best.map(|(l, _)| fns.len() > l).unwrap_or(true) {
            best = Some((fns.len(), i));
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_analysis::TargetSpec;
    use lisa_lang::Program;

    /// The Figure-3 scenario as a mini system: the fixed `touch` path
    /// checks `closing`, the regressed `prep` path does not.
    const SRC: &str = "struct Session { id: int, closing: bool }\n\
         global sessions: map<int, Session>;\n\
         global nodes: map<str, int>;\n\
         fn create_ephemeral(s: Session, path: str) { nodes.put(path, s.id); }\n\
         fn touch_create(sid: int, path: str) {\n\
             let s: Session = sessions.get(sid);\n\
             if (s == null || s.closing) { return; }\n\
             create_ephemeral(s, path);\n\
         }\n\
         fn prep_create(sid: int, path: str) {\n\
             let session: Session = sessions.get(sid);\n\
             if (session == null) { return; }\n\
             create_ephemeral(session, path);\n\
         }\n\
         fn test_touch_live() {\n\
             sessions.put(1, new Session { id: 1 });\n\
             touch_create(1, \"/a\");\n\
             assert(nodes.contains(\"/a\"), \"ephemeral created\");\n\
         }\n\
         fn test_prep_live() {\n\
             sessions.put(1, new Session { id: 1 });\n\
             prep_create(1, \"/b\");\n\
             assert(nodes.contains(\"/b\"), \"ephemeral created\");\n\
         }";

    fn version() -> SystemVersion {
        let p = Program::parse_single("zk", SRC).expect("p");
        assert!(lisa_lang::check_program(&p).is_empty());
        let tests = lisa_concolic::discover_tests(&p, "test_");
        SystemVersion::new("v", p, tests)
    }

    fn rule() -> SemanticRule {
        SemanticRule::new(
            "ZK-1208-r0",
            "no ephemeral create on closing session",
            TargetSpec::Call { callee: "create_ephemeral".into() },
            "s != null && s.closing == false",
        )
        .expect("rule")
    }

    #[test]
    fn detects_the_unguarded_path_and_verifies_the_fixed_one() {
        let pipeline = Pipeline::new(PipelineConfig {
            selection: TestSelection::All,
            ..PipelineConfig::default()
        });
        let report = pipeline.check_rule(&version(), &rule());
        assert_eq!(report.chains.len(), 2, "{:#?}", report.chains);
        let touch = report
            .chains
            .iter()
            .find(|c| c.entry == "touch_create")
            .expect("touch chain");
        let prep = report
            .chains
            .iter()
            .find(|c| c.entry == "prep_create")
            .expect("prep chain");
        assert!(matches!(touch.verdict, ChainVerdict::Verified), "{:?}", touch.verdict);
        assert!(matches!(prep.verdict, ChainVerdict::Violated(_)), "{:?}", prep.verdict);
        assert!(report.sanity_ok);
        if let ChainVerdict::Violated(v) = &prep.verdict {
            // The witness shows the unchecked closing flag.
            assert_eq!(
                v.witness.get("s.closing"),
                Some(&lisa_smt::Value::Bool(true)),
                "witness: {}",
                v.witness
            );
        }
    }

    #[test]
    fn rag_selection_still_finds_the_violation() {
        let pipeline = Pipeline::new(PipelineConfig {
            selection: TestSelection::Rag { k: 2 },
            ..PipelineConfig::default()
        });
        let report = pipeline.check_rule(&version(), &rule());
        assert!(report.has_violation());
    }

    #[test]
    fn uncovered_chain_reported() {
        // Remove the prep test: its chain becomes NotCovered.
        let mut v = version();
        v.tests.retain(|t| t.name != "test_prep_live");
        let pipeline = Pipeline::new(PipelineConfig {
            selection: TestSelection::All,
            ..PipelineConfig::default()
        });
        let report = pipeline.check_rule(&v, &rule());
        let prep = report.chains.iter().find(|c| c.entry == "prep_create").expect("chain");
        assert!(matches!(prep.verdict, ChainVerdict::NotCovered));
        assert_eq!(report.not_covered_count(), 1);
    }

    #[test]
    fn zero_conflict_budget_degrades_to_not_covered() {
        // With no solver budget the violation queries return Unknown and
        // nothing can be Verified or Violated — but the check still
        // completes and reports honestly.
        let pipeline = Pipeline::new(PipelineConfig {
            selection: TestSelection::All,
            budgets: ResourceBudgets {
                max_solver_conflicts: Some(0),
                ..ResourceBudgets::default()
            },
            ..PipelineConfig::default()
        });
        // The violation query is `pi ∧ ¬C`; embed a pairwise-distinct
        // clique in ¬C so deciding it needs actual CDCL conflicts (tiny
        // guard formulas settle by propagation alone and never conflict).
        let rule = SemanticRule::new(
            "R-clique",
            "negated disequality clique",
            TargetSpec::Call { callee: "create_ephemeral".into() },
            "!(x >= 0 && x <= 1 && y >= 0 && y <= 1 && z >= 0 && z <= 1 \
              && x != y && y != z && x != z)",
        )
        .expect("rule");
        let report = pipeline.check_rule(&version(), &rule);
        assert!(report.stats.solver_unknowns > 0, "stats: {:?}", report.stats);
        assert!(
            report.chains.iter().all(|c| matches!(c.verdict, ChainVerdict::NotCovered)),
            "undecided chains must stay not-covered: {:#?}",
            report.chains
        );
    }

    #[test]
    fn generous_budgets_match_unbudgeted_verdicts() {
        let unbudgeted = Pipeline::new(PipelineConfig {
            selection: TestSelection::All,
            ..PipelineConfig::default()
        });
        let budgeted = Pipeline::new(PipelineConfig {
            selection: TestSelection::All,
            budgets: ResourceBudgets {
                max_solver_conflicts: Some(1_000_000),
                max_steps_per_test: Some(100_000_000),
            },
            ..PipelineConfig::default()
        });
        let a = unbudgeted.check_rule(&version(), &rule());
        let b = budgeted.check_rule(&version(), &rule());
        assert_eq!(a.chains.len(), b.chains.len());
        for (x, y) in a.chains.iter().zip(b.chains.iter()) {
            assert_eq!(x.verdict.label(), y.verdict.label(), "{}", x.rendered);
        }
        assert_eq!(b.stats.solver_unknowns, 0);
    }

    #[test]
    fn try_check_rule_rejects_malformed_condition() {
        let pipeline = Pipeline::new(PipelineConfig {
            selection: TestSelection::All,
            ..PipelineConfig::default()
        });
        let mut bad = rule();
        bad.condition_src = "s != null &&".to_string();
        match pipeline.try_check_rule(&version(), &bad) {
            Err(crate::error::LisaError::MalformedRule { rule_id, .. }) => {
                assert_eq!(rule_id, bad.id);
            }
            other => panic!("expected MalformedRule, got {other:?}"),
        }
        // A well-formed rule passes through the boundary unchanged.
        let ok = pipeline.try_check_rule(&version(), &rule()).expect("ok");
        assert!(ok.has_violation());
    }

    /// A memo hit skips validating its rule, which is sound only while
    /// every memoized report belongs to a valid rule. `check_rule` does
    /// not validate, so it must not seed the memo with a rule the gate
    /// rejects: a rule whose condition source does not parse (its parsed
    /// condition is well formed) gets the same malformed-rule report from
    /// the gate on a cold cache, on a warm one, and after `check_rule`
    /// checked it under the gate's memo key.
    #[test]
    fn a_malformed_rule_gets_the_same_report_whatever_the_memo_holds() {
        use crate::{Gate, RuleRegistry};
        let version = version();
        let config = PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() };
        let mut bad = rule();
        bad.condition_src = "s != null &&".to_string();
        let gate = |rule: &SemanticRule, cache: &Arc<GateCache>| {
            let mut registry = RuleRegistry::new();
            registry.register(rule.clone());
            let mut reports =
                Gate::new(&registry).config(config.clone()).cache(cache).run(&version).reports;
            assert_eq!(reports.len(), 1);
            reports.remove(0)
        };
        let render = |r: &RuleReport| format!("{r:?}");

        let cache = Arc::new(GateCache::new());
        let cold = gate(&bad, &cache);
        let [chain] = &*cold.chains else { panic!("one chain: {:?}", cold.chains) };
        let ChainVerdict::EngineError { reason } = &chain.verdict else {
            panic!("engine error: {:?}", chain.verdict)
        };
        assert!(reason.contains("malformed rule: condition \"s != null &&\""), "{reason}");
        assert_eq!(render(&gate(&bad, &cache)), render(&cold), "warm cache");
        assert_eq!(cache.hits(), 0);

        // `check_rule` under the gate's configuration fills the key the
        // gate looks up: a valid rule seeded this way is a gate's hit.
        let seeded = Arc::new(GateCache::new());
        let pipeline = Pipeline::with_cache(config.clone(), Arc::clone(&seeded));
        pipeline.check_rule(&version, &rule());
        assert!(gate(&rule(), &seeded).has_violation());
        assert_eq!(seeded.hits(), 1, "check_rule seeded the gate's key");
        // The malformed rule, checked the same way, is not memoized.
        assert!(pipeline.check_rule(&version, &bad).has_violation(), "checked by its term");
        assert_eq!(render(&gate(&bad, &seeded)), render(&cold), "after check_rule");
        assert_eq!(seeded.hits(), 1, "the gate found no report of the malformed rule");
    }

    #[test]
    fn config_hash_is_pinned() {
        // Durable journal keys carry this hash (`service::durable_key`),
        // so a changed value would split every journaled run's key.
        let tuned = PipelineConfig {
            selection: TestSelection::All,
            budgets: ResourceBudgets {
                max_solver_conflicts: Some(64),
                max_steps_per_test: Some(10_000),
            },
            ..PipelineConfig::default()
        };
        for (config, expected) in
            [(PipelineConfig::default(), 0x743c_8e11_d271_3a8a), (tuned, 0x20b3_d540_f843_a715)]
        {
            assert_eq!(config_hash(&config), expected, "{config:?}");
            assert_eq!(config_hash(&config), lisa_util::fnv1a(format!("{config:?}").as_bytes()));
        }
    }

    #[test]
    fn memo_key_is_pinned() {
        // Memo keys live only in memory, but a formatting change must not
        // split or merge them: the target is fed as its variant's tag and
        // its names, one part each. One key per target.
        let pinned = [
            (TargetSpec::Call { callee: "create_ephemeral".into() }, 0x7306_104c_d303_fa65),
            (TargetSpec::Builtin { name: "blocking_io".into() }, 0x914d_cec6_6e00_3a4e),
            (TargetSpec::BuiltinInSync { name: "blocking_io".into() }, 0x0e0a_c536_c7a1_dd9b),
            (
                TargetSpec::BuiltinInCaller { name: "blocking_io".into(), caller: "sync".into() },
                0x6330_2bee_a786_7634,
            ),
        ];
        for (target, expected) in pinned {
            let mut r = rule();
            r.target = target;
            assert_eq!(memo_key(7, 11, &r), expected, "{:?}", r.target);
        }
        // Names are parts of their own: moving a byte from one name to
        // the next changes the key.
        let split = |name: &str, caller: &str| {
            let mut r = rule();
            r.target = TargetSpec::BuiltinInCaller { name: name.into(), caller: caller.into() };
            memo_key(7, 11, &r)
        };
        assert_ne!(split("ab", "c"), split("a", "bc"));
    }

    #[test]
    fn stats_are_populated() {
        let pipeline = Pipeline::new(PipelineConfig {
            selection: TestSelection::All,
            ..PipelineConfig::default()
        });
        let report = pipeline.check_rule(&version(), &rule());
        assert_eq!(report.stats.static_chains, 2);
        assert_eq!(report.stats.tests_executed, 2);
        assert!(report.stats.target_hits >= 2);
        assert!(report.stats.solver_calls >= 2);
        assert!(report.stats.interp_steps > 0);
    }
}

#[cfg(test)]
mod off_tree_tests {
    use super::*;
    use lisa_analysis::TargetSpec;
    use lisa_lang::Program;
    use lisa_oracle::SemanticRule;

    #[test]
    fn direct_test_invocation_of_target_is_not_lost() {
        // The test calls the protected statement directly (no system
        // path): the arrival matches no chain but the violation must
        // still surface and block.
        let src = "struct S { ok: bool }\n\
             global out: map<str, int>;\n\
             fn act(e: S, tag: str) { out.put(tag, 1); }\n\
             fn test_direct_bad() {\n\
                 let e = new S { ok: false };\n\
                 act(e, \"direct\");\n\
             }";
        let p = Program::parse_single("t", src).expect("parse");
        let v = lisa_concolic::SystemVersion::new(
            "v",
            p.clone(),
            lisa_concolic::discover_tests(&p, "test_"),
        );
        let rule = SemanticRule::new(
            "R",
            "act needs ok",
            TargetSpec::Call { callee: "act".into() },
            "e != null && e.ok == true",
        )
        .expect("rule");
        let pipeline = Pipeline::new(PipelineConfig {
            selection: TestSelection::All,
            ..PipelineConfig::default()
        });
        let report = pipeline.check_rule(&v, &rule);
        assert_eq!(report.chains.len(), 0, "no system chain reaches act");
        assert_eq!(report.unmatched_hits, 1);
        assert!(report.has_violation(), "off-tree violation must block");
        assert_eq!(report.violations().len(), 1);
    }
}
