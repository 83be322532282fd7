//! The enforcement registry and CI/CD gate.
//!
//! The paper's vision (§1): "every failure, once fixed, automatically
//! becomes an executable contract that shields the system from ever
//! repeating the same mistake … enforced in CI/CD pipelines." The
//! [`RuleRegistry`] is that contract store: rules accumulate as tickets
//! are processed, and every new system version is gated on the full set.
//! Rule checks are independent, so the rule is the gate's one unit of
//! parallel work: a small pool of scoped threads pulls rule indices off
//! one counter, and reports fold from index-addressed slots in registry
//! order, so the output never depends on the worker count.
//!
//! The gate is built to *always return a decision*: each rule check runs
//! once under `catch_unwind`, a panicking or malformed rule folds into an
//! engine-error report instead of killing the scope, and a rule that
//! would start after the gate deadline is reported not checked. The
//! [`FailMode`] decides whether engine errors and unchecked rules block
//! (fail-closed, the default) or pass with warnings (fail-open).

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use lisa_concolic::SystemVersion;
use lisa_oracle::SemanticRule;

use crate::error::LisaError;
use crate::faults::{FaultInjector, FaultKind};
use crate::pipeline::{Pipeline, PipelineConfig};
use crate::verdict::RuleReport;

/// The persistent set of enforced rules.
#[derive(Debug, Default, Clone)]
pub struct RuleRegistry {
    rules: Vec<SemanticRule>,
}

impl RuleRegistry {
    pub fn new() -> RuleRegistry {
        RuleRegistry::default()
    }

    /// Register a rule; replaces any rule with the same id *in place*, so
    /// re-registering an updated rule keeps the registry order (and with
    /// it the report order) stable.
    pub fn register(&mut self, rule: SemanticRule) {
        match self.rules.iter_mut().find(|r| r.id == rule.id) {
            Some(slot) => *slot = rule,
            None => self.rules.push(rule),
        }
    }

    pub fn rules(&self) -> &[SemanticRule] {
        &self.rules
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    pub fn get(&self, id: &str) -> Option<&SemanticRule> {
        self.rules.iter().find(|r| r.id == id)
    }
}

/// Gate decision for a candidate version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// No rule violated: the change may ship.
    Pass,
    /// At least one semantic rule violated (or, under fail-closed, an
    /// engine error occurred): block the change.
    Block,
}

impl fmt::Display for GateDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateDecision::Pass => write!(f, "PASS"),
            GateDecision::Block => write!(f, "BLOCK"),
        }
    }
}

/// What the gate does when its own machinery fails on a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailMode {
    /// An engine error blocks the change and requests review. The safe
    /// default for a CI/CD gate: a broken check is not a passed check.
    #[default]
    Closed,
    /// An engine error passes with a warning; availability over strictness.
    Open,
}

impl fmt::Display for FailMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailMode::Closed => write!(f, "closed"),
            FailMode::Open => write!(f, "open"),
        }
    }
}

impl std::str::FromStr for FailMode {
    type Err = String;
    fn from_str(s: &str) -> Result<FailMode, String> {
        match s {
            "closed" => Ok(FailMode::Closed),
            "open" => Ok(FailMode::Open),
            other => Err(format!("unknown fail-mode {other:?} (expected closed|open)")),
        }
    }
}

/// Resilience knobs for one enforcement run.
#[derive(Debug, Default)]
pub struct GateOptions {
    pub fail_mode: FailMode,
    /// Overall wall-clock deadline. It only decides which rules start: a
    /// rule dequeued after it expired is reported not checked, and a rule
    /// that started before it runs to its step and conflict budgets, so
    /// a gate may overrun the deadline by one rule check per worker.
    /// `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Fault injection, for resilience tests and the E10 experiment.
    pub faults: Option<FaultInjector>,
}

/// Result of gating one version against the registry.
#[derive(Debug)]
pub struct EnforcementReport {
    pub version: String,
    pub reports: Vec<RuleReport>,
    pub decision: GateDecision,
    /// Coverage gaps requiring developer review (paper: "developers
    /// should provide the final verdict").
    pub review_needed: usize,
    /// Fail-mode the gate ran under.
    pub fail_mode: FailMode,
    /// Rules whose check failed with an engine error, or that were not
    /// checked.
    pub engine_errors: usize,
    /// Rules not checked because the gate deadline expired before they
    /// started.
    pub unchecked_rules: usize,
    /// Human-readable warnings (engine errors, deadline hits).
    pub warnings: Vec<String>,
    /// Resolved worker width the gate ran at (after `0` → auto
    /// expansion), even when it had fewer rules than workers and started
    /// fewer threads. Introspection only: deliberately kept out of the
    /// rendered report and its JSON so gate output stays byte-identical
    /// across worker counts.
    pub workers: usize,
}

impl EnforcementReport {
    pub fn violated_rules(&self) -> Vec<&RuleReport> {
        self.reports.iter().filter(|r| r.has_violation()).collect()
    }
}

/// Block on any violation, or on any engine error under fail-closed. The
/// one decision rule, shared by the in-memory and the durable gate.
pub(crate) fn decide(
    has_violation: bool,
    engine_errors: usize,
    fail_mode: FailMode,
) -> GateDecision {
    if has_violation || (engine_errors > 0 && fail_mode == FailMode::Closed) {
        GateDecision::Block
    } else {
        GateDecision::Pass
    }
}

/// A caller's view into the engine's slots: which rules it settled
/// itself, and what it does as each checked rule settles. The durable
/// gate uses it to resume a journal and to journal the merge.
pub(crate) trait SlotHook: Sync {
    /// Asked before the run and again as rule `i` dequeues; `true` skips
    /// the check and leaves the slot out of the report (settled before
    /// the run, or the run was cancelled).
    fn skip(&self, i: usize) -> bool;
    /// Rule `i` settled, checked or reported not checked; called on the
    /// worker that dequeued it.
    fn settled(&self, i: usize, report: &RuleReport);
}

/// Resolve a requested worker count: `0` means "auto" — one worker per
/// available hardware thread.
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Run `task(0)`..`task(n - 1)` on `min(width, n)` workers that pull
/// indices off one counter; the calling thread is one of them, so width 1
/// runs inline in index order. Returns each worker's busy time. A task
/// that panics does not stop the others: the first payload is re-raised
/// once every index has run.
fn run_pool(width: usize, n: usize, task: impl Fn(usize) + Sync) -> Vec<Duration> {
    let next = AtomicUsize::new(0);
    let panicked = Mutex::new(None);
    let worker = || {
        let t0 = Instant::now();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return t0.elapsed();
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                panicked.lock().unwrap_or_else(|p| p.into_inner()).get_or_insert(payload);
            }
        }
    };
    let busy = match width.min(n) {
        0 => Vec::new(),
        1 => vec![worker()],
        threads => std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
            let mut busy = vec![worker()];
            busy.extend(helpers.into_iter().map(|h| h.join().expect("tasks are caught")));
            busy
        }),
    };
    if let Some(payload) = panicked.into_inner().unwrap_or_else(|p| p.into_inner()) {
        resume_unwind(payload);
    }
    busy
}

/// The gate engine behind [`crate::Gate`] and the durable gate. The gate
/// never propagates a panic: every rule yields a report, and the worst a
/// faulty rule can do is mark itself as an engine error. When `cache` is
/// given, workers share its memoized rule reports; its counters are
/// published to telemetry on the way out. With a `hook`,
/// skipped slots are missing from the report and the caller owns the
/// run's decision counters.
pub(crate) fn enforce_impl(
    registry: &RuleRegistry,
    version: &SystemVersion,
    config: &PipelineConfig,
    workers: usize,
    options: &GateOptions,
    cache: Option<&Arc<crate::gate::GateCache>>,
    hook: Option<&dyn SlotHook>,
) -> EnforcementReport {
    let started = Instant::now();
    let mut gate_span = lisa_telemetry::span_with("gate.enforce", version.label.as_str());
    let workers = resolve_workers(workers);
    // A deadline too far off to add to the clock is no deadline at all.
    let deadline = options.deadline.and_then(|d| started.checked_add(d));

    // One pipeline for the run; every worker checks its rules with it.
    let pipeline = match cache {
        Some(c) => Pipeline::with_cache(config.clone(), Arc::clone(c)),
        None => Pipeline::new(config.clone()),
    };

    // One slot per rule: rules settle in any order, reports fold in
    // registry order. Only rules the hook leaves to run become tasks.
    let rules = registry.rules();
    let skip = |i: usize| hook.is_some_and(|h| h.skip(i));
    let todo: Vec<usize> = (0..rules.len()).filter(|&i| !skip(i)).collect();
    // With a memo, every rule's key carries the version's fingerprint,
    // so it is computed once here rather than once per rule.
    let version_fp = cache.filter(|_| !todo.is_empty()).map(|_| version.fingerprint());
    let slots: Vec<OnceLock<RuleReport>> = rules.iter().map(|_| OnceLock::new()).collect();
    let busy = run_pool(workers, todo.len(), |k| {
        let i = todo[k];
        if skip(i) {
            return;
        }
        let rule = &rules[i];
        let report = if deadline.is_some_and(|d| Instant::now() >= d) {
            RuleReport::not_checked(rule, "gate deadline expired before this rule started")
        } else {
            check_one_rule(&pipeline, version, version_fp, rule, options)
        };
        if let Some(h) = hook {
            h.settled(i, &report);
        }
        let _ = slots[i].set(report);
    });
    if lisa_telemetry::metrics_enabled() {
        lisa_telemetry::counter_add("sched.tasks_spawned", todo.len() as u64);
        for d in busy {
            lisa_telemetry::histogram_record("sched.worker_busy_us", d.as_micros() as u64);
        }
    }

    // Every rule task fills its slot unless the hook skipped it.
    let reports: Vec<RuleReport> = slots.into_iter().filter_map(OnceLock::into_inner).collect();

    let engine_errors = reports.iter().filter(|r| r.has_engine_error()).count();
    let unchecked_rules = reports.iter().filter(|r| r.unchecked).count();
    let mut warnings = Vec::new();
    if unchecked_rules > 0 {
        warnings.push(format!("gate deadline expired; {unchecked_rules} rule(s) not checked"));
    }
    for r in reports.iter().filter(|r| r.has_engine_error() && !r.unchecked) {
        let reason = r
            .chains
            .iter()
            .find_map(|c| match &c.verdict {
                crate::verdict::ChainVerdict::EngineError { reason } => Some(reason.as_str()),
                _ => None,
            })
            .unwrap_or("unknown");
        // The taxonomy's Display already leads with "rule <id>:" — don't
        // repeat it in the warning prefix.
        let reason =
            reason.strip_prefix(&format!("rule {}: ", r.rule_id)).unwrap_or(reason);
        warnings.push(format!("rule {}: engine error: {reason}", r.rule_id));
    }

    let decision =
        decide(reports.iter().any(|r| r.has_violation()), engine_errors, options.fail_mode);
    let mut review_needed: usize = reports.iter().map(|r| r.not_covered_count()).sum();
    if options.fail_mode == FailMode::Closed {
        // Engine-errored and unchecked rules need a human verdict too.
        review_needed += engine_errors;
    }
    gate_span.arg("rules", reports.len() as u64);
    gate_span.arg("workers", workers as u64);
    gate_span.arg("engine_errors", engine_errors as u64);
    gate_span.arg("unchecked_rules", unchecked_rules as u64);
    if lisa_telemetry::spans_enabled() {
        gate_span.set_detail(format!("{} -> {decision}", version.label));
    }
    if lisa_telemetry::metrics_enabled() {
        lisa_telemetry::counter_add("gate.runs", 1);
        if hook.is_none() {
            count_decision(decision);
        }
        lisa_telemetry::counter_add("gate.engine_errors", engine_errors as u64);
        lisa_telemetry::counter_add("gate.unchecked_rules", unchecked_rules as u64);
    }
    if let Some(c) = cache {
        c.publish_metrics();
    }
    EnforcementReport {
        version: version.label.clone(),
        reports,
        decision,
        review_needed,
        fail_mode: options.fail_mode,
        engine_errors,
        unchecked_rules,
        warnings,
        workers,
    }
}

/// Count a run's decision in `gate.pass` / `gate.block`.
pub(crate) fn count_decision(decision: GateDecision) {
    let name = if decision == GateDecision::Pass { "gate.pass" } else { "gate.block" };
    lisa_telemetry::counter_add(name, 1);
}

/// Check one rule with panic isolation and fault arming. Never panics;
/// a failed check becomes the rule's engine-error report.
fn check_one_rule(
    pipeline: &Pipeline,
    version: &SystemVersion,
    version_fp: Option<u64>,
    rule: &SemanticRule,
    options: &GateOptions,
) -> RuleReport {
    try_check_one_rule(pipeline, version, version_fp, rule, options).unwrap_or_else(|e| {
        RuleReport::engine_error(
            rule.id.clone(),
            rule.description.clone(),
            rule.target.to_string(),
            rule.condition_src.clone(),
            e.to_string(),
        )
    })
}

/// Arm any injected fault, then run the rule check under `catch_unwind`.
fn try_check_one_rule(
    pipeline: &Pipeline,
    version: &SystemVersion,
    version_fp: Option<u64>,
    rule: &SemanticRule,
    options: &GateOptions,
) -> Result<RuleReport, LisaError> {
    let fault = options.faults.as_ref().and_then(|inj| inj.arm(&rule.id));
    // Faults that rewrite the input are applied to a clone; the caller's
    // rule is never mutated.
    let mut effective_rule = None;
    let mut effective_pipeline = None;
    match fault {
        Some(FaultKind::Panic) => {
            panic_isolated(&rule.id, || panic!("lisa-fault: injected panic for rule {}", rule.id))?;
        }
        Some(FaultKind::MalformedCondition) => {
            let mut bad = rule.clone();
            bad.condition_src = format!("{} &&", bad.condition_src);
            effective_rule = Some(bad);
        }
        Some(FaultKind::SolverExhaustion) => {
            let mut config = pipeline.config().clone();
            config.budgets.max_solver_conflicts = Some(0);
            // Keep the cache: the memo key carries the budgets, so a
            // zero-budget check can never surface a full-budget
            // report, nor its report answer a full-budget check.
            effective_pipeline = Some(pipeline.reconfigured(config));
        }
        Some(FaultKind::Stall) => {
            if let Some(inj) = options.faults.as_ref() {
                std::thread::sleep(inj.stall);
            }
        }
        None => {}
    }
    let rule = effective_rule.as_ref().unwrap_or(rule);
    let pipeline = effective_pipeline.as_ref().unwrap_or(pipeline);
    panic_isolated(&rule.id, || pipeline.try_check_rule_ctx(version, version_fp, rule))?
}

/// Run `f` under `catch_unwind`, converting an unwind into
/// [`LisaError::RulePanicked`] for `rule_id`.
fn panic_isolated<T>(rule_id: &str, f: impl FnOnce() -> T) -> Result<T, LisaError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let reason = payload
            .downcast_ref::<&'static str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        LisaError::RulePanicked { rule_id: rule_id.to_string(), reason }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::gate::Gate;
    use crate::pipeline::TestSelection;
    use lisa_analysis::TargetSpec;
    use lisa_lang::Program;

    fn version(guard_prep: bool) -> SystemVersion {
        let prep_guard = if guard_prep { "session == null || session.closing" } else { "session == null" };
        let src = format!(
            "struct Session {{ id: int, closing: bool }}\n\
             global sessions: map<int, Session>;\n\
             fn create_ephemeral(s: Session, path: str) {{}}\n\
             fn prep_create(sid: int, path: str) {{\n\
                 let session: Session = sessions.get(sid);\n\
                 if ({prep_guard}) {{ return; }}\n\
                 create_ephemeral(session, path);\n\
             }}\n\
             fn test_prep_live() {{\n\
                 sessions.put(1, new Session {{ id: 1 }});\n\
                 prep_create(1, \"/a\");\n\
             }}"
        );
        let p = Program::parse_single("zk", &src).expect("p");
        let tests = lisa_concolic::discover_tests(&p, "test_");
        SystemVersion::new(if guard_prep { "fixed" } else { "regressed" }, p, tests)
    }

    fn registry() -> RuleRegistry {
        let mut reg = RuleRegistry::new();
        reg.register(
            SemanticRule::new(
                "ZK-1208-r0",
                "no ephemeral create on closing session",
                TargetSpec::Call { callee: "create_ephemeral".into() },
                "s != null && s.closing == false",
            )
            .expect("rule"),
        );
        reg
    }

    fn config() -> PipelineConfig {
        PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() }
    }

    #[test]
    fn resolve_workers_zero_means_available_parallelism() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
        assert_eq!(resolve_workers(1), 1);
    }

    #[test]
    fn pool_runs_every_index_exactly_once() {
        for width in [1, 2, 4, 8] {
            for n in [0, 1, 3, 8, 32] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let busy = run_pool(width, n, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "width {width}, {n} rules"
                );
                assert_eq!(busy.len(), width.min(n), "one worker per rule at most");
            }
        }
    }

    #[test]
    fn pool_runs_in_registry_order_at_width_one() {
        let order = Mutex::new(Vec::new());
        run_pool(1, 8, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn pool_runs_width_tasks_at_once_and_never_more() {
        // The first `width` tasks rendezvous: each waits until `width`
        // tasks have arrived, which only happens if `width` of them run
        // at once. Nothing is timed; the deadline only turns a pool that
        // cannot overlap (a hang) into a failure.
        let deadline = Instant::now() + Duration::from_secs(60);
        for width in [2, 4, 8] {
            let (running, peak, arrived) =
                (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
            run_pool(width, 3 * width, |_| {
                peak.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                if arrived.fetch_add(1, Ordering::SeqCst) < width {
                    while arrived.load(Ordering::SeqCst) < width {
                        assert!(Instant::now() < deadline, "width {width}: tasks never overlapped");
                        std::thread::yield_now();
                    }
                }
                running.fetch_sub(1, Ordering::SeqCst);
            });
            assert_eq!(peak.into_inner(), width, "width {width}: peak concurrent tasks");
        }
    }

    #[test]
    fn pool_resurfaces_a_task_panic_after_running_the_rest() {
        for width in [1, 4] {
            let ran = AtomicUsize::new(0);
            let r = catch_unwind(AssertUnwindSafe(|| {
                run_pool(width, 6, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 2 {
                        panic!("rule task blew up");
                    }
                })
            }));
            let payload = r.expect_err("the panic must surface from the run");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"rule task blew up"));
            assert_eq!(ran.load(Ordering::Relaxed), 6, "width {width}: siblings still run");
        }
    }

    #[test]
    fn fixed_version_passes_the_gate() {
        let report = Gate::new(&registry()).config(config()).workers(2).run(&version(true));
        assert_eq!(report.decision, GateDecision::Pass);
        assert!(report.violated_rules().is_empty());
        assert_eq!(report.engine_errors, 0);
    }

    #[test]
    fn regressed_version_is_blocked() {
        let report = Gate::new(&registry()).config(config()).workers(2).run(&version(false));
        assert_eq!(report.decision, GateDecision::Block);
        assert_eq!(report.violated_rules().len(), 1);
    }

    #[test]
    fn registry_replaces_same_id() {
        let mut reg = registry();
        let len_before = reg.len();
        reg.register(
            SemanticRule::new(
                "ZK-1208-r0",
                "updated",
                TargetSpec::Call { callee: "create_ephemeral".into() },
                "s != null",
            )
            .expect("rule"),
        );
        assert_eq!(reg.len(), len_before);
        assert_eq!(reg.get("ZK-1208-r0").expect("rule").description, "updated");
    }

    #[test]
    fn registry_replacement_preserves_order() {
        let mut reg = RuleRegistry::new();
        for id in ["A", "B", "C"] {
            reg.register(
                SemanticRule::new(
                    id,
                    id,
                    TargetSpec::Call { callee: "create_ephemeral".into() },
                    "s != null",
                )
                .expect("rule"),
            );
        }
        reg.register(
            SemanticRule::new(
                "B",
                "B updated",
                TargetSpec::Call { callee: "create_ephemeral".into() },
                "s != null && s.closing == false",
            )
            .expect("rule"),
        );
        let ids: Vec<&str> = reg.rules().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["A", "B", "C"], "replacement must not reorder");
        assert_eq!(reg.get("B").expect("B").description, "B updated");
    }

    #[test]
    fn parallel_matches_sequential() {
        let reg = {
            let mut r = registry();
            r.register(
                SemanticRule::new(
                    "EXTRA-r0",
                    "session must exist",
                    TargetSpec::Call { callee: "create_ephemeral".into() },
                    "s != null",
                )
                .expect("rule"),
            );
            r
        };
        let v = version(false);
        let seq = Gate::new(&reg).config(config()).workers(1).run(&v);
        let par = Gate::new(&reg).config(config()).workers(4).run(&v);
        assert_eq!(seq.decision, par.decision);
        assert_eq!(seq.reports.len(), par.reports.len());
        for (a, b) in seq.reports.iter().zip(par.reports.iter()) {
            assert_eq!(a.rule_id, b.rule_id);
            assert_eq!(a.violated_count(), b.violated_count());
        }
    }

    #[test]
    fn injected_panic_blocks_under_fail_closed() {
        let options = GateOptions {
            faults: Some(FaultInjector::new(
                FaultPlan::new().inject("ZK-1208-r0", FaultKind::Panic),
            )),
            ..GateOptions::default()
        };
        let report = Gate::new(&registry()).config(config()).workers(2).options(options).run(&version(true));
        assert_eq!(report.decision, GateDecision::Block);
        assert_eq!(report.engine_errors, 1);
        assert!(report.review_needed >= 1);
        assert!(report.reports[0].has_engine_error());
    }

    #[test]
    fn injected_panic_passes_with_warning_under_fail_open() {
        let options = GateOptions {
            fail_mode: FailMode::Open,
            faults: Some(FaultInjector::new(
                FaultPlan::new().inject("ZK-1208-r0", FaultKind::Panic),
            )),
            ..GateOptions::default()
        };
        let report = Gate::new(&registry()).config(config()).workers(2).options(options).run(&version(true));
        assert_eq!(report.decision, GateDecision::Pass);
        assert_eq!(report.engine_errors, 1);
        assert!(report.warnings.iter().any(|w| w.contains("engine error")));
    }

    #[test]
    fn malformed_condition_fault_is_a_per_rule_error() {
        let options = GateOptions {
            faults: Some(FaultInjector::new(
                FaultPlan::new().inject("ZK-1208-r0", FaultKind::MalformedCondition),
            )),
            ..GateOptions::default()
        };
        let report = Gate::new(&registry()).config(config()).workers(1).options(options).run(&version(true));
        assert_eq!(report.engine_errors, 1);
        assert!(report.warnings.iter().any(|w| w.contains("malformed")));
    }

    #[test]
    fn zero_deadline_leaves_every_rule_unchecked_and_decides_by_fail_mode() {
        for (fail_mode, decision) in
            [(FailMode::Closed, GateDecision::Block), (FailMode::Open, GateDecision::Pass)]
        {
            let options =
                GateOptions { fail_mode, deadline: Some(Duration::ZERO), ..GateOptions::default() };
            let report = Gate::new(&registry()).config(config()).workers(1).options(options).run(&version(true));
            assert_eq!(report.unchecked_rules, 1);
            assert_eq!(report.engine_errors, 1, "decided like an engine error");
            let r = &report.reports[0];
            assert!(r.unchecked && r.has_engine_error() && r.tests_selected.is_empty());
            assert_eq!(r.stats.tests_executed, 0, "nothing ran");
            assert_eq!(report.warnings, ["gate deadline expired; 1 rule(s) not checked"]);
            assert_eq!(report.decision, decision, "fail-{fail_mode}");
        }
    }

    #[test]
    fn fault_on_one_rule_leaves_other_rules_untouched() {
        let mut reg = registry();
        reg.register(
            SemanticRule::new(
                "EXTRA-r0",
                "session must exist",
                TargetSpec::Call { callee: "create_ephemeral".into() },
                "s != null",
            )
            .expect("rule"),
        );
        let clean = Gate::new(&reg).config(config()).workers(2).run(&version(false));
        let options = GateOptions {
            faults: Some(FaultInjector::new(
                FaultPlan::new().inject("EXTRA-r0", FaultKind::Panic),
            )),
            ..GateOptions::default()
        };
        let faulted = Gate::new(&reg).config(config()).workers(2).options(options).run(&version(false));
        let clean_zk = &clean.reports[0];
        let faulted_zk = &faulted.reports[0];
        assert_eq!(clean_zk.rule_id, faulted_zk.rule_id);
        assert_eq!(clean_zk.violated_count(), faulted_zk.violated_count());
        assert_eq!(clean_zk.verified_count(), faulted_zk.verified_count());
        assert_eq!(clean_zk.not_covered_count(), faulted_zk.not_covered_count());
        assert!(faulted.reports[1].has_engine_error());
    }
}
