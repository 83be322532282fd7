//! Test harness: drives corpus test functions through the interpreter
//! with a concolic tracer attached.
//!
//! Paper §3.2: *"Instead of doing execution with random inputs, our tool
//! utilizes existing tests to act as our input."* A SIR test is a
//! zero-argument function (conventionally `test_*`) in the system's test
//! module; each test runs in a fresh interpreter (fresh globals/heap,
//! like a JUnit fixture) and yields the target hits observed along its
//! concrete path.

use std::time::{Duration, Instant};

use lisa_analysis::{AliasMap, TargetSpec};
use lisa_lang::{Interp, Program, RunConfig, RuntimeError, Value};

use crate::engine::{ConcolicTracer, EngineStats, Policy, TargetHit};

/// A complete system version under check: the program plus its test
/// suite. Corpus cases ship one of these per version (buggy, fixed,
/// regressed, latest).
#[derive(Debug, Clone)]
pub struct SystemVersion {
    /// Version label, e.g. `v2-fixed`.
    pub label: String,
    pub program: Program,
    pub tests: Vec<TestCase>,
}

impl SystemVersion {
    pub fn new(label: impl Into<String>, program: Program, tests: Vec<TestCase>) -> SystemVersion {
        SystemVersion { label: label.into(), program, tests }
    }

    /// Test `(name, summary)` pairs for embedding indexes.
    pub fn test_summaries(&self) -> Vec<(String, String)> {
        self.tests.iter().map(|t| (t.name.clone(), t.summary.clone())).collect()
    }

    /// Content-hash fingerprint of this version: the program's canonical
    /// form plus the test suite (name, summary, entry). The label is
    /// deliberately excluded — two versions with identical content hash
    /// identically no matter what they are called, which is what lets a
    /// gate recognize an unchanged resubmission.
    pub fn fingerprint(&self) -> u64 {
        let mut h = lisa_util::Fnv1a::new();
        h.part_u64(lisa_lang::fingerprint_program(&self.program));
        for t in &self.tests {
            h.part(t.name.as_bytes());
            h.part(t.summary.as_bytes());
            h.part(t.entry.as_bytes());
        }
        h.finish()
    }
}

/// A test case: an executable entry in the program plus the natural-
/// language summary used for embedding-based selection.
#[derive(Debug, Clone, PartialEq)]
pub struct TestCase {
    pub name: String,
    /// One-line description (what feature/scenario the test exercises).
    pub summary: String,
    /// The SIR function to invoke (zero-argument).
    pub entry: String,
}

impl TestCase {
    pub fn new(name: impl Into<String>, summary: impl Into<String>) -> TestCase {
        let name = name.into();
        TestCase { entry: name.clone(), name, summary: summary.into() }
    }
}

/// Outcome of one test execution under the tracer.
#[derive(Debug)]
pub struct TestRun {
    pub test: String,
    pub hits: Vec<TargetHit>,
    pub error: Option<RuntimeError>,
    pub stats: EngineStats,
    pub steps: u64,
}

/// Resource limits for one harness invocation. The defaults are
/// unbounded-in-practice (the interpreter's own [`RunConfig`] step ceiling
/// still applies); gate callers tighten them to guarantee termination.
#[derive(Debug, Clone, Default)]
pub struct HarnessBudget {
    /// Interpreter step budget applied to each individual test run
    /// (`None` = the interpreter default). A test exceeding it stops with
    /// a step-limit runtime error but keeps the hits recorded so far.
    pub max_steps_per_test: Option<u64>,
    /// Wall-clock budget for the whole batch. When it expires, remaining
    /// tests are skipped and [`HarnessOutcome::truncated`] is set. The
    /// gate pipeline never sets it: no rule check reads the wall clock,
    /// and the gate deadline only decides which rules start.
    pub wall: Option<Duration>,
}

/// Result of a budgeted batch: the runs that executed, plus whether the
/// wall-clock budget cut the batch short.
#[derive(Debug)]
pub struct HarnessOutcome {
    pub runs: Vec<TestRun>,
    /// True when the wall budget expired before every test ran; the tests
    /// after the cut-off simply have no `TestRun`.
    pub truncated: bool,
}

/// Run `tests` against `program`, tracing `target` under `policy`.
///
/// Each test gets a fresh interpreter. A test that fails at runtime still
/// reports the hits recorded before the failure (a crashing test may have
/// reached the target first).
pub fn run_tests(
    program: &Program,
    tests: &[TestCase],
    target: &TargetSpec,
    aliases: &AliasMap,
    policy: &Policy,
) -> Vec<TestRun> {
    run_tests_budgeted(program, tests, target, aliases, policy, &HarnessBudget::default()).runs
}

/// Budgeted variant of [`run_tests`]: per-test step ceilings plus a batch
/// wall-clock cut-off, so a pathological test suite cannot stall the gate.
pub fn run_tests_budgeted(
    program: &Program,
    tests: &[TestCase],
    target: &TargetSpec,
    aliases: &AliasMap,
    policy: &Policy,
    budget: &HarnessBudget,
) -> HarnessOutcome {
    // A budget too large to add to the clock is no budget at all.
    let deadline = budget.wall.and_then(|w| Instant::now().checked_add(w));
    let mut runs = Vec::with_capacity(tests.len());
    let mut truncated = false;
    for t in tests {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            truncated = true;
            lisa_telemetry::counter_add("concolic.tests_truncated", (tests.len() - runs.len()) as u64);
            lisa_telemetry::event(
                "concolic.wall_budget_exhausted",
                format!("{} of {} tests skipped", tests.len() - runs.len(), tests.len()),
            );
            break;
        }
        let mut test_span = lisa_telemetry::span_with("concolic.test", t.name.as_str());
        let mut interp = match budget.max_steps_per_test {
            Some(max_steps) => {
                Interp::with_config(program, RunConfig { max_steps, ..RunConfig::default() })
            }
            None => Interp::new(program),
        };
        let mut tracer = ConcolicTracer::new(target, aliases, policy.clone());
        let result = interp.call(&t.entry, Vec::<Value>::new(), &mut tracer);
        let stats = tracer.stats;
        test_span.arg("steps", interp.stats.steps);
        test_span.arg("branches_seen", stats.branches_seen);
        test_span.arg("branches_recorded", stats.branches_recorded);
        test_span.arg("hits", tracer.hits.len() as u64);
        test_span.arg("errored", u64::from(result.is_err()));
        if lisa_telemetry::metrics_enabled() {
            lisa_telemetry::counter_add("concolic.tests_executed", 1);
            lisa_telemetry::counter_add("concolic.steps", interp.stats.steps);
            lisa_telemetry::counter_add("concolic.branches_seen", stats.branches_seen);
            lisa_telemetry::counter_add("concolic.branches_recorded", stats.branches_recorded);
            lisa_telemetry::counter_add(
                "concolic.constraints_invalidated",
                stats.constraints_invalidated,
            );
            lisa_telemetry::counter_add("concolic.target_hits", tracer.hits.len() as u64);
        }
        runs.push(TestRun {
            test: t.name.clone(),
            hits: tracer.hits,
            error: result.err(),
            stats,
            steps: interp.stats.steps,
        });
    }
    HarnessOutcome { runs, truncated }
}

/// Discover test functions by prefix (`test_` by convention) and derive
/// placeholder summaries from their names. Corpus tests carry curated
/// summaries instead; this is the fallback for ad-hoc programs.
pub fn discover_tests(program: &Program, prefix: &str) -> Vec<TestCase> {
    program
        .functions()
        .filter(|f| f.name.starts_with(prefix) && f.params.is_empty())
        .map(|f| TestCase::new(f.name.as_str(), f.name.replace('_', " ")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "struct Session { id: int, closing: bool }\n\
         global sessions: map<int, Session>;\n\
         fn create_node(s: Session) {}\n\
         fn register(sid: int) {\n\
             let s: Session = sessions.get(sid);\n\
             if (s == null) { return; }\n\
             create_node(s);\n\
         }\n\
         fn test_register_live() {\n\
             sessions.put(1, new Session { id: 1 });\n\
             register(1);\n\
         }\n\
         fn test_register_missing() {\n\
             register(42);\n\
         }";

    fn program() -> Program {
        let p = Program::parse_single("t", SRC).expect("p");
        assert!(lisa_lang::check_program(&p).is_empty());
        p
    }

    #[test]
    fn discovery_finds_test_functions() {
        let tests = discover_tests(&program(), "test_");
        let names: Vec<&str> = tests.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["test_register_live", "test_register_missing"]);
        assert_eq!(tests[0].summary, "test register live");
    }

    #[test]
    fn each_test_gets_fresh_globals() {
        let p = program();
        let tests = discover_tests(&p, "test_");
        let mut aliases = AliasMap::default();
        aliases.insert("register", "s", "s");
        let runs = run_tests(
            &p,
            &tests,
            &TargetSpec::Call { callee: "create_node".into() },
            &aliases,
            &Policy::RelevantOnly,
        );
        assert_eq!(runs.len(), 2);
        // First test hits the target; second (missing session, and a
        // fresh map because globals reset) does not.
        assert_eq!(runs[0].hits.len(), 1);
        assert!(runs[0].error.is_none());
        assert_eq!(runs[1].hits.len(), 0);
    }

    #[test]
    fn step_budget_stops_runaway_test_but_keeps_hits() {
        let src = format!(
            "{SRC}\nfn test_spin() {{\n\
                 sessions.put(3, new Session {{ id: 3 }});\n\
                 register(3);\n\
                 let i = 0;\n\
                 while (i >= 0) {{ i = i + 1; }}\n\
             }}"
        );
        let p = Program::parse_single("t", &src).expect("p");
        let tests = vec![TestCase::new("test_spin", "spins forever")];
        let out = run_tests_budgeted(
            &p,
            &tests,
            &TargetSpec::Call { callee: "create_node".into() },
            &AliasMap::default(),
            &Policy::RecordAll,
            &HarnessBudget { max_steps_per_test: Some(5_000), wall: None },
        );
        assert!(!out.truncated);
        let run = &out.runs[0];
        assert!(run.error.is_some(), "step limit should surface as an error");
        assert!(run.steps <= 5_000 + 1);
        assert_eq!(run.hits.len(), 1, "hits before the limit are kept");
    }

    #[test]
    fn zero_wall_budget_truncates_batch() {
        let p = program();
        let tests = discover_tests(&p, "test_");
        let out = run_tests_budgeted(
            &p,
            &tests,
            &TargetSpec::Call { callee: "create_node".into() },
            &AliasMap::default(),
            &Policy::RelevantOnly,
            &HarnessBudget { max_steps_per_test: None, wall: Some(Duration::ZERO) },
        );
        assert!(out.truncated);
        assert!(out.runs.is_empty());
    }

    #[test]
    fn unbudgeted_wrapper_matches_budgeted_default() {
        let p = program();
        let tests = discover_tests(&p, "test_");
        let target = TargetSpec::Call { callee: "create_node".into() };
        let mut aliases = AliasMap::default();
        aliases.insert("register", "s", "s");
        let plain = run_tests(&p, &tests, &target, &aliases, &Policy::RelevantOnly);
        let budgeted = run_tests_budgeted(
            &p,
            &tests,
            &target,
            &aliases,
            &Policy::RelevantOnly,
            &HarnessBudget::default(),
        );
        assert!(!budgeted.truncated);
        assert_eq!(plain.len(), budgeted.runs.len());
        for (a, b) in plain.iter().zip(budgeted.runs.iter()) {
            assert_eq!(a.test, b.test);
            assert_eq!(a.hits.len(), b.hits.len());
            assert_eq!(a.steps, b.steps);
        }
    }

    #[test]
    fn failing_test_keeps_prior_hits() {
        let src = format!("{SRC}\nfn test_crash() {{ register_then_boom(); }}\n\
            fn register_then_boom() {{\n\
                sessions.put(2, new Session {{ id: 2 }});\n\
                register(2);\n\
                throw \"boom\";\n\
            }}");
        let p = Program::parse_single("t", &src).expect("p");
        let tests = vec![TestCase::new("test_crash", "crashing test")];
        let runs = run_tests(
            &p,
            &tests,
            &TargetSpec::Call { callee: "create_node".into() },
            &AliasMap::default(),
            &Policy::RecordAll,
        );
        assert!(runs[0].error.is_some());
        assert_eq!(runs[0].hits.len(), 1);
    }
}
