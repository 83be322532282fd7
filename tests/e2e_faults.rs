//! End-to-end fault-injection suite for the enforcement gate.
//!
//! The resilience contract under test: the gate never aborts — every
//! registered rule gets a report no matter what faults fire; rules the
//! fault plan does not touch keep byte-identical verdicts; fail-closed
//! blocks on engine errors where fail-open passes with a warning; and the
//! CLI reserves exit code 2 for true engine errors (usage/load failures,
//! or a fail-closed gate that could not complete a check).

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::process::Command;
use std::time::Duration;

use lisa::service::exit_code_of;
use lisa::{
    FailMode, FaultInjector, FaultKind, FaultPlan, Gate, GateDecision, GateOptions,
    PipelineConfig, RuleReport, RuleRegistry, TestSelection,
};
use lisa_analysis::TargetSpec;
use lisa_concolic::{discover_tests, SystemVersion};
use lisa_corpus::all_cases;
use lisa_lang::Program;
use lisa_oracle::{infer_rules, rescope, Scope, SemanticRule};

/// A small multi-subsystem version: an ephemeral-session path (with or
/// without the `closing` guard), a fully guarded checkout path, and a
/// guarded audit path. Four rules target it so random fault plans have
/// room to hit some rules and spare others.
fn version(fixed: bool) -> SystemVersion {
    let prep_guard =
        if fixed { "session == null || session.closing" } else { "session == null" };
    let src = format!(
        "struct Session {{ id: int, closing: bool }}\n\
         struct Order {{ id: int, paid: bool }}\n\
         global sessions: map<int, Session>;\n\
         global orders: map<int, Order>;\n\
         fn create_ephemeral(s: Session, path: str) {{}}\n\
         fn ship(o: Order) {{}}\n\
         fn audit(n: int) {{}}\n\
         fn prep_create(sid: int, path: str) {{\n\
             let session: Session = sessions.get(sid);\n\
             if ({prep_guard}) {{ return; }}\n\
             create_ephemeral(session, path);\n\
         }}\n\
         fn checkout(oid: int) {{\n\
             let o: Order = orders.get(oid);\n\
             if (o == null || o.paid == false) {{ return; }}\n\
             ship(o);\n\
         }}\n\
         fn audit_all(n: int) {{ if (n > 0) {{ audit(n); }} }}\n\
         fn test_prep() {{ sessions.put(1, new Session {{ id: 1 }}); prep_create(1, \"/a\"); }}\n\
         fn test_checkout() {{ orders.put(2, new Order {{ id: 2, paid: true }}); checkout(2); }}\n\
         fn test_audit() {{ audit_all(3); }}"
    );
    let p = Program::parse_single("sys", &src).expect("parse");
    let tests = discover_tests(&p, "test_");
    SystemVersion::new(if fixed { "fixed" } else { "regressed" }, p, tests)
}

fn registry() -> RuleRegistry {
    let mut reg = RuleRegistry::new();
    for (id, desc, callee, cond) in [
        ("ZK-1208", "no ephemeral create on closing session", "create_ephemeral",
         "s != null && s.closing == false"),
        ("SHOP-1", "never ship unpaid orders", "ship", "o != null && o.paid == true"),
        ("SHOP-2", "never ship null orders", "ship", "o != null"),
        ("AUD-1", "audit counts are positive", "audit", "n > 0"),
    ] {
        reg.register(
            SemanticRule::new(id, desc, TargetSpec::Call { callee: callee.into() }, cond)
                .expect("rule"),
        );
    }
    reg
}

fn rule_ids(reg: &RuleRegistry) -> Vec<String> {
    reg.rules().iter().map(|r| r.id.clone()).collect()
}

fn config() -> PipelineConfig {
    PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() }
}

/// Byte-exact verdict fingerprint of a rule report: every chain's label
/// and rendered path plus the fold counts. Deliberately excludes wall
/// times, which legitimately vary run to run.
fn fingerprint(r: &RuleReport) -> String {
    let mut s = String::new();
    for c in r.chains.iter() {
        s.push_str(&format!("[{}] {}\n", c.verdict.label(), c.rendered));
    }
    s.push_str(&format!(
        "verified={} violated={} not_covered={} sanity_ok={}",
        r.verified_count(),
        r.violated_count(),
        r.not_covered_count(),
        r.sanity_ok
    ));
    s
}

fn fingerprints(reports: &[RuleReport]) -> HashMap<String, String> {
    reports.iter().map(|r| (r.rule_id.clone(), fingerprint(r))).collect()
}

/// Which rules a plan will fault (probe a throwaway injector: `arm`
/// answers `Some` for every injected rule).
fn faulted_rules(plan: &FaultPlan, ids: &[String]) -> HashSet<String> {
    let probe = FaultInjector::new(plan.clone());
    ids.iter().filter(|id| probe.arm(id).is_some()).cloned().collect()
}

#[test]
fn twenty_seeded_fault_plans_never_abort_and_spare_unaffected_rules() {
    let reg = registry();
    let v = version(false);
    let cfg = config();
    let ids = rule_ids(&reg);
    let clean = Gate::new(&reg).config(cfg.clone()).workers(2).run(&v);
    assert_eq!(clean.decision, GateDecision::Block, "baseline: ZK-1208 regression");
    let clean_fp = fingerprints(&clean.reports);

    for seed in 0..20u64 {
        let plan = FaultPlan::random(seed, 0.5, &ids);
        let faulted = faulted_rules(&plan, &ids);
        let options = GateOptions {
            faults: Some(FaultInjector::new(plan)),
            ..GateOptions::default()
        };
        let report = Gate::new(&reg).config(cfg.clone()).workers(2).options(options).run(&v);
        assert_eq!(
            report.reports.len(),
            reg.len(),
            "seed {seed}: every rule must be reported"
        );
        for r in &report.reports {
            if faulted.contains(&r.rule_id) {
                continue;
            }
            assert_eq!(
                fingerprint(r),
                clean_fp[&r.rule_id],
                "seed {seed}: unaffected rule {} drifted from the clean run",
                r.rule_id
            );
        }
        // Fail-closed: any engine error must surface as a block, never a
        // silent pass.
        if report.engine_errors > 0 {
            assert_eq!(report.decision, GateDecision::Block, "seed {seed}");
            assert!(report.review_needed > 0, "seed {seed}");
        }
    }
}

#[test]
fn each_fault_kind_is_contained_to_its_rule() {
    let reg = registry();
    let v = version(false);
    let cfg = config();
    let ids = rule_ids(&reg);
    let clean_fp = fingerprints(&Gate::new(&reg).config(cfg.clone()).workers(2).run(&v).reports);

    for kind in [
        FaultKind::Panic,
        FaultKind::SolverExhaustion,
        FaultKind::MalformedCondition,
        FaultKind::Stall,
    ] {
        let options = GateOptions {
            faults: Some(FaultInjector::new(FaultPlan::new().inject("SHOP-1", kind))),
            ..GateOptions::default()
        };
        let report = Gate::new(&reg).config(cfg.clone()).workers(2).options(options).run(&v);
        assert_eq!(report.reports.len(), reg.len(), "{kind:?}: report must be complete");
        for id in &ids {
            if id == "SHOP-1" {
                continue;
            }
            let r = report.reports.iter().find(|r| &r.rule_id == id).expect("report");
            assert_eq!(
                fingerprint(r),
                clean_fp[id],
                "{kind:?} on SHOP-1 must not disturb {id}"
            );
        }
        let shop = report.reports.iter().find(|r| r.rule_id == "SHOP-1").expect("SHOP-1");
        match kind {
            FaultKind::Panic | FaultKind::MalformedCondition => {
                assert!(shop.has_engine_error(), "{kind:?} should be an engine error");
                assert_eq!(report.engine_errors, 1, "{kind:?}");
            }
            FaultKind::SolverExhaustion => {
                // Budget exhaustion degrades to uncertainty, never to a
                // crash or a phantom violation.
                assert!(!shop.has_engine_error(), "{kind:?}");
                assert_eq!(shop.violated_count(), 0, "{kind:?}");
                assert_eq!(report.engine_errors, 0, "{kind:?}");
            }
            FaultKind::Stall => {
                // A slow stage changes timing only.
                assert_eq!(fingerprint(shop), clean_fp["SHOP-1"], "{kind:?}");
                assert_eq!(report.engine_errors, 0, "{kind:?}");
            }
        }
    }
}

#[test]
fn fail_closed_blocks_where_fail_open_passes_with_warning() {
    let reg = registry();
    let v = version(true); // no genuine violations
    let cfg = config();
    let plan = || FaultPlan::new().inject("AUD-1", FaultKind::Panic);

    let closed = Gate::new(&reg)
        .config(cfg.clone())
        .workers(2)
        .options(GateOptions {
            faults: Some(FaultInjector::new(plan())),
            ..GateOptions::default()
        })
        .run(&v);
    assert_eq!(closed.decision, GateDecision::Block);
    assert_eq!(closed.engine_errors, 1);
    assert!(closed.review_needed >= 1);

    let open = Gate::new(&reg)
        .config(cfg)
        .workers(2)
        .options(GateOptions {
            fail_mode: FailMode::Open,
            faults: Some(FaultInjector::new(plan())),
            ..GateOptions::default()
        })
        .run(&v);
    assert_eq!(open.decision, GateDecision::Pass);
    assert_eq!(open.engine_errors, 1);
    assert!(
        open.warnings.iter().any(|w| w.contains("engine error")),
        "fail-open must warn: {:?}",
        open.warnings
    );
}

#[test]
fn panic_isolation_is_deterministic_across_worker_counts() {
    let reg = registry();
    let v = version(false);
    let cfg = config();
    let ids = rule_ids(&reg);
    for seed in 0..8u64 {
        let run = |workers: usize| {
            let options = GateOptions {
                faults: Some(FaultInjector::new(FaultPlan::random(seed, 0.5, &ids))),
                ..GateOptions::default()
            };
            Gate::new(&reg).config(cfg.clone()).workers(workers).options(options).run(&v)
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.decision, par.decision, "seed {seed}");
        assert_eq!(seq.engine_errors, par.engine_errors, "seed {seed}");
        assert_eq!(fingerprints(&seq.reports), fingerprints(&par.reports), "seed {seed}");
    }
}

#[test]
fn deadline_plus_faults_still_produce_a_complete_decision() {
    let reg = registry();
    let v = version(false);
    let options = GateOptions {
        deadline: Some(Duration::ZERO),
        faults: Some(FaultInjector::new(FaultPlan::new().inject("SHOP-2", FaultKind::Panic))),
        ..GateOptions::default()
    };
    let report = Gate::new(&reg).config(config()).workers(1).options(options).run(&v);
    assert_eq!(report.reports.len(), reg.len());
    // No rule starts, so the injected panic never fires: every rule is
    // reported not checked.
    assert_eq!(report.unchecked_rules, reg.len(), "past-deadline rules are not checked");
    assert_eq!(report.engine_errors, reg.len());
    assert!(
        report.warnings.iter().all(|w| !w.contains("panicked")),
        "{:?}",
        report.warnings
    );
    assert!(report.warnings.iter().any(|w| w.contains("deadline")), "{:?}", report.warnings);
    // Fail-closed + unchecked rules: the gate must block rather than guess.
    assert_eq!(report.decision, GateDecision::Block);
}

/// The case's rule mined from its original ticket; builtin-family rules
/// are generalized (Figure 6) before enforcement.
fn mined_rule(case: &lisa_corpus::Case) -> SemanticRule {
    let out = infer_rules(case.original_ticket()).expect("inference");
    let rule = out.rules.into_iter().next().expect("at least one rule");
    match &rule.target {
        TargetSpec::Call { .. } => rule,
        _ => rescope(&rule, Scope::Generalized).expect("builtin rules rescope"),
    }
}

/// Every corpus gate (16 cases of 4 versions, each with its case's mined
/// rule) past a zero deadline: no rule starts, so fail-closed blocks every
/// gate with exit 2, violating version or not, and fail-open passes every
/// gate with a warning.
#[test]
fn a_zero_deadline_blocks_every_corpus_gate_fail_closed_and_warns_fail_open() {
    let mut gates = 0;
    for case in all_cases() {
        let mut reg = RuleRegistry::new();
        reg.register(mined_rule(&case));
        for v in case.versions.all() {
            let gate = |fail_mode| {
                let options =
                    GateOptions { fail_mode, deadline: Some(Duration::ZERO), ..Default::default() };
                Gate::new(&reg).config(config()).options(options).run(v)
            };
            let closed = gate(FailMode::Closed);
            let what = format!("{} {}", case.meta.id, v.label);
            assert_eq!(closed.unchecked_rules, reg.len(), "{what}");
            assert_eq!(closed.decision, GateDecision::Block, "{what}");
            assert!(!closed.reports.iter().any(RuleReport::has_violation), "{what}");
            assert_eq!(exit_code_of(closed.decision, false), 2, "{what}");

            let open = gate(FailMode::Open);
            assert_eq!(open.unchecked_rules, reg.len(), "{what}");
            assert_eq!(open.decision, GateDecision::Pass, "{what}");
            assert!(
                open.warnings.iter().any(|w| w.contains("not checked")),
                "{what}: {:?}",
                open.warnings
            );
            gates += 1;
        }
    }
    assert_eq!(gates, 64, "16 cases of 4 versions");
}

// ---------------------------------------------------------------------------
// CLI exit-code contract: 2 is reserved for true engine errors.
// ---------------------------------------------------------------------------

const CLI_SYSTEM: &str = r#"
struct Session { id: int, closing: bool }
global sessions: map<int, Session>;

fn create_ephemeral(s: Session, path: str) {}

fn prep_create(sid: int, path: str) {
    let session: Session = sessions.get(sid);
    if (session == null || session.closing) { return; }
    create_ephemeral(session, path);
}

fn test_prep() { sessions.put(1, new Session { id: 1 }); prep_create(1, "/a"); }
"#;

const CLI_RULES: &str = "# shield rule\n\
    when calling create_ephemeral, require s != null && s.closing == false\n";

struct Fixture {
    dir: std::path::PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("lisa-faults-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut f = std::fs::File::create(dir.join("sys.sir")).expect("sir");
        f.write_all(CLI_SYSTEM.as_bytes()).expect("write");
        let mut f = std::fs::File::create(dir.join("rules.txt")).expect("rules");
        f.write_all(CLI_RULES.as_bytes()).expect("write");
        Fixture { dir }
    }

    fn gate(&self, extra: &[&str]) -> (i32, String) {
        let sys = self.dir.to_string_lossy().into_owned();
        let rules = self.dir.join("rules.txt").to_string_lossy().into_owned();
        let mut args = vec!["gate", "--system", &sys, "--rules", &rules];
        args.extend_from_slice(extra);
        let out = Command::new(env!("CARGO_BIN_EXE_lisa"))
            .args(&args)
            .output()
            .expect("spawn lisa");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        (out.status.code().unwrap_or(-1), text)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Find a seed whose random plan (rate 1.0) assigns the wanted kind to
/// the CLI's single rule. `FaultPlan::random` is deterministic in the
/// seed, so the search result is stable.
fn seed_for_kind(rule_id: &str, want: FaultKind) -> u64 {
    let ids = vec![rule_id.to_string()];
    (0..500u64)
        .find(|&seed| {
            let probe = FaultInjector::new(FaultPlan::random(seed, 1.0, &ids));
            probe.arm(rule_id) == Some(want)
        })
        .expect("a seed yielding the wanted fault kind")
}

#[test]
fn cli_reserves_exit_two_for_true_engine_errors() {
    let fx = Fixture::new("exit2");
    // The rules file is `# comment` on line 1, the rule on line 2 → id rule-2.
    let seed = seed_for_kind("rule-2", FaultKind::Panic).to_string();

    // Clean gate on a guarded system: exit 0.
    let (code, out) = fx.gate(&[]);
    assert_eq!(code, 0, "{out}");

    // Injected panic under fail-closed (default): a true engine error, exit 2.
    let (code, out) = fx.gate(&["--fault-seed", &seed, "--fault-rate", "1.0"]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("engine error"), "{out}");
    assert!(out.contains("decision: BLOCK"), "{out}");

    // Same fault under fail-open: pass with a warning, exit 0.
    let (code, out) = fx.gate(&[
        "--fault-seed", &seed, "--fault-rate", "1.0", "--fail-mode", "open",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("warning:"), "{out}");

    // Solver-budget exhaustion is uncertainty, not an engine error: the
    // gate may ask for review but must not claim the engine failed.
    let (code, out) = fx.gate(&["--max-solver-conflicts", "0"]);
    assert_ne!(code, 2, "budget exhaustion is not an engine error: {out}");
}

#[test]
fn a_panicked_rule_is_named_in_its_reason_and_warning() {
    let fx = Fixture::new("panic-id");
    let seed = seed_for_kind("rule-2", FaultKind::Panic).to_string();
    let (code, out) = fx.gate(&["--fault-seed", &seed, "--fault-rate", "1.0"]);
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("        reason:  rule rule-2: check panicked: "), "{out}");
    assert!(out.contains("warning: rule rule-2: engine error: check panicked: "), "{out}");
    assert!(!out.contains("rule : "), "a panic report lost its rule id: {out}");
}

#[test]
fn cli_violations_keep_exit_one_even_with_resilience_flags() {
    let fx = Fixture::new("exit1");
    // Drop the closing guard: a genuine violation.
    let regressed = CLI_SYSTEM.replace(
        "if (session == null || session.closing) { return; }",
        "if (session == null) { return; }",
    );
    std::fs::write(fx.dir.join("sys.sir"), regressed).expect("write");
    let (code, out) = fx.gate(&["--fail-mode", "closed", "--deadline-ms", "60000"]);
    assert_eq!(code, 1, "violations are exit 1, not 2: {out}");
    assert!(out.contains("decision: BLOCK"), "{out}");
}
