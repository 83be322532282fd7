//! Verdicts: the output of asserting one rule over one system version.

use std::sync::Arc;

use lisa_oracle::SemanticRule;
use lisa_smt::{Model, Term};

/// Verdict for one static execution chain (paper §3.2: "the result of
/// the injected code snippets will determine whether the execution path
/// is verified or not; if there are any execution paths that are not
/// run … developers should provide the final verdict").
#[derive(Debug, Clone)]
pub enum ChainVerdict {
    /// Every observed arrival along this chain satisfied the checker.
    Verified,
    /// Some arrival fulfilled the complement of the checker formula.
    Violated(Violation),
    /// No selected test drove this chain to the target — a coverage gap
    /// for developer review.
    NotCovered,
    /// The gate machinery failed while checking this chain (panic,
    /// exhausted budget, malformed rule). Not a statement about the
    /// system under check; the fail-mode decides whether it blocks.
    EngineError { reason: String },
}

impl ChainVerdict {
    pub fn is_violated(&self) -> bool {
        matches!(self, ChainVerdict::Violated(_))
    }

    pub fn label(&self) -> &'static str {
        match self {
            ChainVerdict::Verified => "verified",
            ChainVerdict::Violated(_) => "VIOLATED",
            ChainVerdict::NotCovered => "not-covered",
            ChainVerdict::EngineError { .. } => "engine-error",
        }
    }
}

/// Evidence for a violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The path condition observed at the target.
    pub pi: Term,
    /// Witness assignment satisfying `pi ∧ ¬checker` — the concrete shape
    /// of the state the missing check lets through.
    pub witness: Model,
    /// Test whose execution reached the target.
    pub test: String,
    /// Dynamic call chain of the arrival (harness first).
    pub chain: Vec<String>,
}

/// Report for one chain of the execution tree.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// `entry -> f -> g [target]` rendering.
    pub rendered: String,
    pub entry: String,
    /// Functions on the static chain (entry first, holder last).
    pub functions: Vec<String>,
    pub verdict: ChainVerdict,
    /// Tests whose executions were matched to this chain.
    pub covering_tests: Vec<String>,
}

/// Full report for one rule on one version.
///
/// The chains, test list and off-tree violations are immutable once the
/// check has produced them and are shared, not copied, by a clone: the
/// rule-report memo answers a hit with a clone of the memoized report,
/// which copies only the four header strings.
#[derive(Debug, Clone)]
pub struct RuleReport {
    pub rule_id: String,
    pub rule_description: String,
    pub target: String,
    pub condition: String,
    pub chains: Arc<[ChainReport]>,
    /// Tests selected as concrete inputs.
    pub tests_selected: Arc<[String]>,
    /// Sanity check (§3.2): the fixed path must verify — at least one
    /// chain Verified. A rule with hits but no verified chain is suspect.
    pub sanity_ok: bool,
    /// Violations observed on arrivals whose dynamic stack matches no
    /// static chain (e.g. a test invoking the protected statement
    /// directly). They still block the gate — a violation is a violation
    /// wherever it was observed.
    pub off_tree_violations: Arc<[Violation]>,
    /// Arrivals that matched no static chain (violating or not).
    pub unmatched_hits: u64,
    /// True when the rule was never checked: the gate deadline expired
    /// before it started. Its one chain is an engine error carrying the
    /// reason, so the fail mode decides it like any engine error.
    pub unchecked: bool,
    /// Aggregate engine statistics across test executions.
    pub stats: PipelineStats,
}

impl RuleReport {
    pub fn violations(&self) -> Vec<&Violation> {
        self.chains
            .iter()
            .filter_map(|c| match &c.verdict {
                ChainVerdict::Violated(v) => Some(v),
                _ => None,
            })
            .chain(self.off_tree_violations.iter())
            .collect()
    }

    pub fn count(&self, pred: fn(&ChainVerdict) -> bool) -> usize {
        self.chains.iter().filter(|c| pred(&c.verdict)).count()
    }

    pub fn verified_count(&self) -> usize {
        self.count(|v| matches!(v, ChainVerdict::Verified))
    }

    pub fn violated_count(&self) -> usize {
        self.count(|v| matches!(v, ChainVerdict::Violated(_)))
    }

    pub fn not_covered_count(&self) -> usize {
        self.count(|v| matches!(v, ChainVerdict::NotCovered))
    }

    pub fn engine_error_count(&self) -> usize {
        self.count(|v| matches!(v, ChainVerdict::EngineError { .. }))
    }

    pub fn has_engine_error(&self) -> bool {
        self.engine_error_count() > 0
    }

    pub fn has_violation(&self) -> bool {
        self.violated_count() > 0 || !self.off_tree_violations.is_empty()
    }

    /// A report representing a rule whose check failed entirely: one
    /// synthetic engine-error chain carrying the reason, so the rule
    /// still appears in the enforcement report instead of vanishing.
    pub fn engine_error(
        rule_id: impl Into<String>,
        rule_description: impl Into<String>,
        target: impl Into<String>,
        condition: impl Into<String>,
        reason: impl Into<String>,
    ) -> RuleReport {
        let reason = reason.into();
        RuleReport {
            rule_id: rule_id.into(),
            rule_description: rule_description.into(),
            target: target.into(),
            condition: condition.into(),
            chains: Arc::new([ChainReport {
                rendered: "<engine error>".to_string(),
                entry: String::new(),
                functions: Vec::new(),
                verdict: ChainVerdict::EngineError { reason },
                covering_tests: Vec::new(),
            }]),
            tests_selected: Arc::new([]),
            sanity_ok: false,
            off_tree_violations: Arc::new([]),
            unmatched_hits: 0,
            unchecked: false,
            stats: PipelineStats::default(),
        }
    }

    /// A report for a rule the gate never started checking: the
    /// [`RuleReport::engine_error`] shape, marked
    /// [`RuleReport::unchecked`].
    pub fn not_checked(rule: &SemanticRule, reason: impl Into<String>) -> RuleReport {
        RuleReport {
            unchecked: true,
            ..RuleReport::engine_error(
                rule.id.clone(),
                rule.description.clone(),
                rule.target.to_string(),
                rule.condition_src.clone(),
                reason,
            )
        }
    }
}

/// Cost/effort counters for one rule check.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    pub static_chains: u64,
    pub tests_selected: u64,
    pub tests_executed: u64,
    pub branches_seen: u64,
    pub branches_recorded: u64,
    pub target_hits: u64,
    pub solver_calls: u64,
    /// Violation queries the solver gave up on (budget exhausted).
    pub solver_unknowns: u64,
    pub interp_steps: u64,
    /// Wall time of the whole rule check.
    pub wall: std::time::Duration,
}
