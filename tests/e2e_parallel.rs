//! End-to-end parallel-enforcement suite.
//!
//! The gate checks rules in parallel, one task per rule. Its external
//! contract: `--workers N` is a throughput knob, never an input. Gate stdout (human and JSON), exit
//! codes, and the durable journal must be byte-identical at widths 1, 2,
//! 4, and 8 across the whole corpus; `--workers auto` resolves to the
//! machine; the resolved width surfaces only on the verbose stderr
//! channel; a gate never starts more workers than it has rules; and a
//! parallel run publishes `sched.*` telemetry.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use lisa::report::render_enforcement;
use lisa::{
    FaultInjector, FaultKind, FaultPlan, Gate, GateCache, GateDecision, GateOptions,
    PipelineConfig, RuleRegistry, TestSelection,
};
use lisa_analysis::TargetSpec;
use lisa_corpus::{all_cases, case};
use lisa_oracle::{infer_rules, rescope, Scope};

fn config() -> PipelineConfig {
    PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() }
}

// ---------------------------------------------------------------------------
// Library level: every corpus case, every width, one report.
// ---------------------------------------------------------------------------

/// Assert `render(workers)` prints width 1's bytes at widths 2/4/8.
fn assert_width_invariant(what: &str, render: impl Fn(usize) -> String) {
    let baseline = render(1);
    for workers in [2, 4, 8] {
        assert_eq!(render(workers), baseline, "{what}: report drifted at width {workers}");
    }
}

#[test]
fn every_corpus_case_renders_identically_at_every_width() {
    let mut merged = RuleRegistry::new();
    for case in all_cases() {
        let Ok(out) = infer_rules(case.original_ticket()) else { continue };
        let mut reg = RuleRegistry::new();
        for rule in out.rules {
            merged.register(rule.clone());
            let rule = match &rule.target {
                TargetSpec::Call { .. } => rule,
                _ => rescope(&rule, Scope::Generalized).expect("rescope"),
            };
            reg.register(rule);
        }
        for version in [&case.versions.regressed, &case.versions.fixed] {
            assert_width_invariant(&format!("{}@{}", case.meta.id, version.label), |w| {
                render_enforcement(&Gate::new(&reg).config(config()).workers(w).run(version))
            });
        }
    }

    // Every mined rule in one registry against one version: cold (a
    // fresh cache per run), and with every rule stalled so rules settle
    // out of order at every width above 1.
    let zk = case("zk-ephemeral").expect("case");
    let version = &zk.versions.regressed;
    let gate = |w: usize| Gate::new(&merged).config(config()).workers(w);
    assert_width_invariant("merged, cold", |w| {
        render_enforcement(&gate(w).cache(&Arc::new(GateCache::new())).run(version))
    });
    let mut plan = FaultPlan::new();
    for rule in merged.rules() {
        plan = plan.inject(rule.id.clone(), FaultKind::Stall);
    }
    assert_width_invariant("merged, stalled", |w| {
        let options =
            GateOptions { faults: Some(FaultInjector::new(plan.clone())), ..GateOptions::default() };
        render_enforcement(&gate(w).options(options).run(version))
    });
}

#[test]
fn zero_deadline_at_width_8_leaves_every_rule_unchecked_and_still_decides() {
    let zk = case("zk-ephemeral").expect("case");
    let mut reg = RuleRegistry::new();
    let out = infer_rules(zk.original_ticket()).expect("rules");
    for rule in out.rules {
        reg.register(rule);
    }
    let options = GateOptions {
        deadline: Some(std::time::Duration::ZERO),
        ..GateOptions::default()
    };
    let report =
        Gate::new(&reg).config(config()).workers(8).options(options).run(&zk.versions.regressed);
    assert_eq!(report.unchecked_rules, report.reports.len(), "every rule past the deadline");
    assert!(report.reports.iter().all(|r| r.unchecked && r.has_engine_error()));
    assert!(report.warnings.iter().any(|w| w.contains("deadline")));
    // No rule starts, yet every rule settles in the report, and
    // fail-closed blocks on the unchecked rules.
    assert_eq!(report.reports.len(), reg.len(), "every rule still settles");
    assert_eq!(report.decision, GateDecision::Block);
    assert_eq!(report.workers, 8, "resolved width is reported for introspection");
}

// ---------------------------------------------------------------------------
// CLI level: stdout bytes, auto resolution, stderr surfacing, telemetry.
// ---------------------------------------------------------------------------

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    /// Dump the regressed ZooKeeper corpus version to `.sir` files plus
    /// two rules (the ground truth and a second target) so the gate has
    /// more than one rule task to spread across workers.
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("lisa-e2e-par-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sys")).expect("mkdir");
        let case = case("zk-ephemeral").expect("zookeeper corpus case");
        for m in &case.versions.regressed.program.modules {
            let name = m.name.replace(['/', '\\'], "_");
            std::fs::write(dir.join(format!("sys/{name}.sir")), &m.source).expect("sir");
        }
        let callee = case.ground_truth.target.callee();
        let rules = format!(
            "when calling {callee}, require {}\n\
             when calling {callee}, require s != null\n",
            case.ground_truth.condition_src,
        );
        std::fs::write(dir.join("rules.txt"), rules).expect("rules");
        Fixture { dir }
    }

    fn path(&self, rel: &str) -> String {
        self.dir.join(rel).to_string_lossy().into_owned()
    }

    fn gate(&self, extra: &[&str]) -> (i32, Vec<u8>, String) {
        let mut args = vec!["gate", "--system", &self.path("sys"), "--rules", &self.path("rules.txt")]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>();
        args.extend(extra.iter().map(|s| s.to_string()));
        let out =
            Command::new(env!("CARGO_BIN_EXE_lisa")).args(&args).output().expect("spawn lisa");
        (
            out.status.code().unwrap_or(-1),
            out.stdout,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn cli_stdout_is_byte_identical_across_widths_and_cache_settings() {
    let fx = Fixture::new("stdout");
    let (code1, out1, _) = fx.gate(&["--workers", "1"]);
    assert_eq!(code1, 1, "regressed version must block");
    for workers in ["2", "4", "8", "auto"] {
        for cache in ["on", "off"] {
            let (code, out, _) = fx.gate(&["--workers", workers, "--cache", cache]);
            assert_eq!(code, code1, "--workers {workers} --cache {cache}: exit code drifted");
            assert_eq!(
                out, out1,
                "--workers {workers} --cache {cache}: stdout drifted from width 1"
            );
        }
    }
}

#[test]
fn cli_durable_wal_is_byte_identical_across_widths() {
    let fx = Fixture::new("wal");
    let (code1, out1, _) = fx.gate(&["--workers", "1", "--state", &fx.path("state-1")]);
    let (code8, out8, _) = fx.gate(&["--workers", "8", "--state", &fx.path("state-8")]);
    assert_eq!(code8, code1);
    assert_eq!(out8, out1, "durable summary drifted across widths");
    let wal1 = std::fs::read(fx.dir.join("state-1/wal.log")).expect("wal 1");
    let wal8 = std::fs::read(fx.dir.join("state-8/wal.log")).expect("wal 8");
    assert_eq!(wal8, wal1, "wal.log bytes must not depend on worker count");
}

#[test]
fn cli_rejects_bad_workers_and_accepts_auto() {
    let fx = Fixture::new("flags");
    let (code, _, stderr) = fx.gate(&["--workers", "many"]);
    assert_eq!(code, 2, "bad --workers must be a usage error");
    assert!(stderr.contains("expected a number or `auto`"), "stderr: {stderr}");
    let (code, _, _) = fx.gate(&["--workers", "auto"]);
    assert_eq!(code, 1, "auto must run the gate normally");
}

#[test]
fn verbose_stderr_surfaces_resolved_width_and_stdout_stays_clean() {
    let fx = Fixture::new("verbose");
    let (_, quiet_out, _) = fx.gate(&["--workers", "4"]);
    let (_, out, stderr) = fx.gate(&["--workers", "4", "--verbose"]);
    assert_eq!(out, quiet_out, "--verbose must not touch stdout");
    assert!(
        stderr.contains("scheduler width 4 (--workers 4)"),
        "verbose stderr must name the resolved width: {stderr}"
    );
    let (_, _, stderr_auto) = fx.gate(&["--workers", "auto", "--verbose"]);
    assert!(
        stderr_auto.contains("(--workers 0)"),
        "auto resolves through 0: {stderr_auto}"
    );
}

#[test]
fn parallel_gate_publishes_sched_telemetry() {
    let fx = Fixture::new("metrics");
    let metrics = fx.path("metrics.json");
    let (_, _, _) = fx.gate(&["--workers", "4", "--metrics-out", &metrics]);
    let snapshot = std::fs::read_to_string(&metrics).expect("metrics snapshot");
    assert!(
        snapshot.contains("\"sched.tasks_spawned\":2"),
        "one task per rule: {snapshot}"
    );
    assert!(snapshot.contains("sched.worker_busy_us"), "metrics missing sched histogram: {snapshot}");
    assert!(
        snapshot.contains("cache.rule.lock_acquires"),
        "metrics missing cache lock counters: {snapshot}"
    );
}

#[test]
fn wide_gate_spawns_no_more_workers_than_rules() {
    let fx = Fixture::new("wide");
    let (code1, out1, _) = fx.gate(&["--workers", "1"]);
    let metrics = fx.path("metrics.json");
    let (code, out, stderr) =
        fx.gate(&["--workers", "64", "--verbose", "--metrics-out", &metrics]);
    assert_eq!(code, code1, "exit code drifted at width 64");
    assert_eq!(out, out1, "stdout drifted from width 1 at width 64");
    assert!(
        stderr.contains("scheduler width 64 (--workers 64)"),
        "the requested width is still reported: {stderr}"
    );
    let snapshot = std::fs::read_to_string(&metrics).expect("metrics snapshot");
    assert!(
        snapshot.contains("\"sched.worker_busy_us\":{\"count\":2,"),
        "a 2-rule gate runs 2 workers, not 64: {snapshot}"
    );
}
