//! End-to-end cache-transparency suite.
//!
//! The contract under test: caching is an optimization, never an input.
//! A gate run with the version-scoped caches enabled must produce
//! byte-identical artifacts — human-readable stdout, verdict JSON
//! (modulo wall-clock fields), and the durable journal — to a run with
//! caching off, including across a kill-and-resume and across versions
//! gated one after another in the same state directory.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lisa::report::{render_enforcement, render_rule_report};
use lisa::{
    gate_durable, DurableGateReport, DurableOptions, FaultInjector, FaultKind, FaultPlan, Gate,
    GateCache, GateOptions, PipelineConfig, RuleRegistry, TestSelection,
};
use lisa_analysis::TargetSpec;
use lisa_concolic::{discover_tests, SystemVersion};
use lisa_lang::Program;
use lisa_oracle::SemanticRule;
use lisa_store::{scan, GateEvent};

// ---------------------------------------------------------------------------
// Library-level fixtures: two rule families over separate subsystems, so
// a change to one function dirties one rule and spares the other.
// ---------------------------------------------------------------------------

/// `audit_floor` is the knob: versions that differ only there leave the
/// ephemeral-session subsystem (and the ZK rule's dependencies) intact.
fn version(label: &str, guard_closing: bool, audit_floor: i64) -> SystemVersion {
    parse_version(label, &version_src(guard_closing, audit_floor))
}

fn version_src(guard_closing: bool, audit_floor: i64) -> String {
    let guard =
        if guard_closing { "session == null || session.closing" } else { "session == null" };
    format!(
        "struct Session {{ id: int, closing: bool }}\n\
         global sessions: map<int, Session>;\n\
         fn create_ephemeral(s: Session, path: str) {{}}\n\
         fn audit(n: int) {{}}\n\
         fn prep_create(sid: int, path: str) {{\n\
             let session: Session = sessions.get(sid);\n\
             if ({guard}) {{ return; }}\n\
             create_ephemeral(session, path);\n\
         }}\n\
         fn audit_all(n: int) {{ if (n > {audit_floor}) {{ audit(n); }} }}\n\
         fn test_prep() {{ sessions.put(1, new Session {{ id: 1 }}); prep_create(1, \"/a\"); }}\n\
         fn test_audit() {{ audit_all(3); }}"
    )
}

fn parse_version(label: &str, src: &str) -> SystemVersion {
    let p = Program::parse_single("sys", src).expect("fixture parses");
    let tests = discover_tests(&p, "test_");
    SystemVersion::new(label, p, tests)
}

fn registry() -> RuleRegistry {
    let mut reg = RuleRegistry::new();
    for (id, callee, cond) in [
        ("ZK-1208", "create_ephemeral", "s != null && s.closing == false"),
        ("AUD-1", "audit", "n > 0"),
    ] {
        reg.register(
            SemanticRule::new(id, id, TargetSpec::Call { callee: callee.into() }, cond)
                .expect("fixture rule"),
        );
    }
    reg
}

fn config() -> PipelineConfig {
    PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() }
}

/// A fresh directory per call. Tests run in parallel and some share a
/// helper (and so a tag), so the pid alone would let one test's cleanup
/// delete another's journal.
fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!("lisa-e2e-cache-{tag}-{}-{seq}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn run_durable(
    dir: &std::path::Path,
    v: &SystemVersion,
    cache: Option<&Arc<GateCache>>,
) -> DurableGateReport {
    let durable = DurableOptions {
        state_dir: dir.to_path_buf(),
        cache: cache.map(Arc::clone),
        ..DurableOptions::default()
    };
    gate_durable(&registry(), v, &config(), &GateOptions::default(), &durable)
        .expect("durable gate run")
}

// ---------------------------------------------------------------------------
// Plain gate: identical reports, and a shared cache actually hits.
// ---------------------------------------------------------------------------

#[test]
fn cached_gate_report_is_byte_identical_to_uncached() {
    let reg = registry();
    let v = version("v1", false, 0);
    let uncached = Gate::new(&reg).config(config()).workers(2).run(&v);

    let cache = Arc::new(GateCache::new());
    let gate = Gate::new(&reg).config(config()).workers(2).cache(&cache);
    let first = gate.run(&v);
    let second = gate.run(&v);

    let baseline = render_enforcement(&uncached);
    assert_eq!(render_enforcement(&first), baseline, "cold cache changed the report");
    assert_eq!(render_enforcement(&second), baseline, "warm cache changed the report");
    assert_eq!(first.decision, uncached.decision);

    // The second run must be served from the cache, not re-explored:
    // the memo answers every one of its rules.
    assert!(cache.hits() > 0, "warm run produced no cache hits");
    let rules = reg.len() as u64;
    assert_eq!((cache.misses(), cache.hits()), (rules, rules), "memo missed a warm rule");
}

#[test]
fn cache_is_transparent_across_every_corpus_case() {
    use lisa_corpus::all_cases;
    use lisa_oracle::{infer_rules, rescope, Scope};
    for case in all_cases().into_iter().take(6) {
        let Ok(out) = infer_rules(case.original_ticket()) else { continue };
        let mut reg = RuleRegistry::new();
        for rule in out.rules {
            let rule = match &rule.target {
                TargetSpec::Call { .. } => rule,
                _ => rescope(&rule, Scope::Generalized).expect("rescope"),
            };
            reg.register(rule);
        }
        let cache = Arc::new(GateCache::new());
        for v in [&case.versions.fixed, &case.versions.regressed, &case.versions.latest] {
            let plain = Gate::new(&reg).config(config()).workers(2).run(v);
            let cached =
                Gate::new(&reg).config(config()).workers(2).cache(&cache).run(v);
            assert_eq!(
                render_enforcement(&cached),
                render_enforcement(&plain),
                "{}@{}: cached report drifted",
                case.meta.id,
                v.label
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Durable gate: journal bytes, kill-and-resume, versions sharing a state dir.
// ---------------------------------------------------------------------------

#[test]
fn durable_journal_is_byte_identical_with_and_without_cache() {
    let v = version("v1", false, 0);
    let dir_off = tmpdir("wal-off");
    let dir_on = tmpdir("wal-on");
    let off = run_durable(&dir_off, &v, None);
    let cache = Arc::new(GateCache::new());
    let on = run_durable(&dir_on, &v, Some(&cache));

    assert_eq!(on.verdicts_text(), off.verdicts_text());
    assert_eq!(on.render(), off.render(), "cache must not leak into the summary");
    let wal_off = std::fs::read(dir_off.join("wal.log")).expect("wal off");
    let wal_on = std::fs::read(dir_on.join("wal.log")).expect("wal on");
    assert_eq!(wal_on, wal_off, "journal bytes must not depend on caching");

    // Neither run persists anything beside the journal for later versions.
    assert!(!dir_on.join("fingerprints.log").exists(), "cached run wrote fingerprints.log");
    assert!(!dir_off.join("fingerprints.log").exists(), "uncached run wrote fingerprints.log");
    let _ = std::fs::remove_dir_all(&dir_off);
    let _ = std::fs::remove_dir_all(&dir_on);
}

#[test]
fn kill_and_resume_with_cache_recovers_byte_identical_verdicts() {
    let v = version("v1", false, 0);
    // Uncached, uninterrupted baseline.
    let dir = tmpdir("kill-base");
    let baseline = run_durable(&dir, &v, None);
    let journal = std::fs::read(dir.join("wal.log")).expect("journal");
    let _ = std::fs::remove_dir_all(&dir);

    let scanned = scan(&journal);
    assert!(scanned.corrupt.is_empty());
    let finished = |bytes: &[u8]| {
        scan(bytes)
            .records
            .iter()
            .filter(|r| matches!(GateEvent::decode(r), Ok(GateEvent::RuleCheckFinished { .. })))
            .count()
    };
    for (i, kp) in std::iter::once(0u64).chain(scanned.boundaries.iter().copied()).enumerate() {
        let dir = tmpdir(&format!("kill-{i}"));
        std::fs::write(dir.join("wal.log"), &journal[..kp as usize]).expect("truncate");
        let settled = finished(&journal[..kp as usize]);
        // Resume with a cold cache — the journal, not the cache, is the
        // source of settled verdicts; the cache only speeds up the rest.
        let cache = Arc::new(GateCache::new());
        let report = run_durable(&dir, &v, Some(&cache));
        assert_eq!(
            report.verdicts_text(),
            baseline.verdicts_text(),
            "kill point {i}: cached resume changed verdicts"
        );
        assert_eq!(report.reused, settled, "kill point {i}");
        let final_journal = std::fs::read(dir.join("wal.log")).expect("final journal");
        assert_eq!(finished(&final_journal), registry().len(), "kill point {i}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn unchanged_rules_reuse_verdicts_across_versions() {
    let cache = Arc::new(GateCache::new());
    let dir = tmpdir("xver");

    // First version: everything is explored fresh.
    let v1 = version("v1", false, 0);
    let r1 = run_durable(&dir, &v1, Some(&cache));
    assert_eq!(r1.fresh, 2);

    // Second version changes only the audit subsystem, gated in v1's
    // state dir. Nothing carries over from v1: the journal's run key
    // differs, and no other record of v1's verdicts is kept.
    let v2 = version("v2", false, 1);
    let r2 = run_durable(&dir, &v2, Some(&cache));
    assert_eq!((r2.reused, r2.fresh), (0, 2), "a previous version donated a verdict");

    // Byte-identity: an uncached from-scratch run of v2 agrees exactly.
    let dir_fresh = tmpdir("xver-fresh");
    let fresh = run_durable(&dir_fresh, &v2, None);
    assert_eq!(r2.verdicts_text(), fresh.verdicts_text());
    // r2 additionally warns about archiving v1's stale journal — a
    // consequence of sharing the state dir, not of caching; the verdict
    // lines themselves must match exactly.
    let sans_warnings = |r: &DurableGateReport| -> String {
        r.render().lines().filter(|l| !l.trim_start().starts_with("warning:")).fold(
            String::new(),
            |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            },
        )
    };
    assert_eq!(sans_warnings(&r2), sans_warnings(&fresh));
    assert_eq!(
        std::fs::read(dir.join("wal.log")).expect("wal"),
        std::fs::read(dir_fresh.join("wal.log")).expect("wal fresh"),
        "a shared state dir must journal the same records as a fresh one"
    );

    // Third version touches the guarded subsystem: the fix is observed,
    // never a stale verdict.
    let v3 = version("v3", true, 1);
    let r3 = run_durable(&dir, &v3, Some(&cache));
    assert_eq!((r3.reused, r3.fresh), (0, 2));
    assert!(!r3.has_violation(), "the fix must be observed, not the stale verdict");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_fresh);
}

// ---------------------------------------------------------------------------
// Memo soundness: what may never be stored, and what may never be shared.
// ---------------------------------------------------------------------------

fn memo_entries(cache: &GateCache) -> u64 {
    cache.tier_stats().iter().map(|(_, s)| s.entries).sum()
}

/// `render_enforcement` of an uncached gate and of a gate on `cache`,
/// same rules, config, options and version.
fn renders(
    reg: &RuleRegistry,
    cfg: &PipelineConfig,
    options: impl Fn() -> GateOptions,
    cache: &Arc<GateCache>,
    v: &SystemVersion,
) -> (String, String) {
    let uncached = Gate::new(reg).config(cfg.clone()).options(options()).run(v);
    let cached = Gate::new(reg).config(cfg.clone()).options(options()).cache(cache).run(v);
    (render_enforcement(&uncached), render_enforcement(&cached))
}

#[test]
fn a_rule_started_before_the_deadline_is_memoized_and_an_unstarted_one_never_is() {
    let reg = registry();
    let v = version("v1", false, 0);
    let cache = Arc::new(GateCache::new());

    // Deadline already expired: no rule starts, and nothing is memoized.
    let expired = GateOptions { deadline: Some(Duration::ZERO), ..GateOptions::default() };
    let report = Gate::new(&reg).config(config()).options(expired).cache(&cache).run(&v);
    assert_eq!(report.unchecked_rules, reg.len());
    assert_eq!(memo_entries(&cache), 0, "an unchecked report was memoized");

    // A deadline that expires during the first rule's check: the rule
    // stalls past it before checking, and its first test then spins to
    // the interpreter's step ceiling, so the second rule never starts.
    let mut spun = parse_version(
        "v1",
        &format!(
            "{}\nfn test_spin() {{ let i: int = 0; while (true) {{ i = i + 1; }} }}",
            version_src(false, 0)
        ),
    );
    spun.tests.rotate_right(1);
    assert_eq!(spun.tests[0].name, "test_spin");
    let mid = || {
        let stall = FaultPlan::new().inject("ZK-1208", FaultKind::Stall);
        let faults = FaultInjector::new(stall);
        assert!(faults.stall > Duration::from_millis(20));
        GateOptions {
            deadline: Some(Duration::from_millis(20)),
            faults: Some(faults),
            ..GateOptions::default()
        }
    };
    let report = Gate::new(&reg).config(config()).options(mid()).cache(&cache).run(&spun);
    let [started, unstarted] = &report.reports[..] else { panic!("two rules") };
    assert!(!started.unchecked, "the first rule starts at once");
    assert!(unstarted.unchecked, "the deadline never fired");
    assert_eq!(report.unchecked_rules, 1);
    // The started rule ran to its budgets: the same report as with no
    // deadline, and memoized like any other.
    let plain = Gate::new(&reg).config(config()).run(&spun);
    assert_eq!(render_rule_report(started), render_rule_report(&plain.reports[0]));
    assert_eq!(memo_entries(&cache), 1, "only the started rule is memoized");
    let hits = cache.hits();
    let rerun = Gate::new(&reg).config(config()).options(mid()).cache(&cache).run(&spun);
    assert_eq!(cache.hits(), hits + 1, "the started rule's report answers the rerun");
    assert_eq!(render_rule_report(&rerun.reports[0]), render_rule_report(started));
    assert!(rerun.reports[1].unchecked);
    assert_eq!(memo_entries(&cache), 1);

    // A plain gate on the same cache renders exactly like an uncached one.
    for v in [&v, &spun] {
        let (uncached, cached) = renders(&reg, &config(), GateOptions::default, &cache, v);
        assert_eq!(cached, uncached);
    }
}

#[test]
fn a_solver_exhaustion_attempt_never_answers_a_full_budget_check() {
    // Deciding this rule's queries takes real CDCL conflicts, so a
    // zero-conflict budget leaves its chains not-covered.
    let mut reg = RuleRegistry::new();
    reg.register(
        SemanticRule::new(
            "R-clique",
            "negated disequality clique",
            TargetSpec::Call { callee: "create_ephemeral".into() },
            "!(x >= 0 && x <= 1 && y >= 0 && y <= 1 && z >= 0 && z <= 1 \
              && x != y && y != z && x != z)",
        )
        .expect("rule"),
    );
    let v = version("v1", false, 0);
    let exhausted = || GateOptions {
        faults: Some(FaultInjector::new(
            FaultPlan::new().inject("R-clique", FaultKind::SolverExhaustion),
        )),
        ..GateOptions::default()
    };
    let plain = GateOptions::default;
    let render = |options: GateOptions| {
        render_enforcement(&Gate::new(&reg).config(config()).options(options).run(&v))
    };
    assert_ne!(render(exhausted()), render(plain()), "the fault must change the report");

    // Fault first, then a full-budget check; and the other way round.
    for order in [[exhausted, plain], [plain, exhausted]] {
        let cache = Arc::new(GateCache::new());
        for options in order {
            let (uncached, cached) = renders(&reg, &config(), options, &cache, &v);
            assert_eq!(cached, uncached);
        }
    }
}

#[test]
fn versions_with_other_tests_never_share_an_entry() {
    let reg = registry();
    let cache = Arc::new(GateCache::new());

    // One program, one test fewer.
    let full = version("v1", false, 0);
    let mut fewer = full.clone();
    fewer.tests.retain(|t| t.name != "test_prep");
    for v in [&full, &fewer] {
        let (uncached, cached) = renders(&reg, &config(), GateOptions::default, &cache, v);
        assert_eq!(cached, uncached);
    }
    let plain = |v| render_enforcement(&Gate::new(&reg).config(config()).run(v));
    assert_ne!(plain(&full), plain(&fewer));

    // One program and test list, other summaries: under RAG top-1 the
    // summaries decide which test runs, and only one reaches the target.
    let rag = PipelineConfig { selection: TestSelection::Rag { k: 1 }, ..config() };
    let summaries = |reach: &str, idle: &str| {
        let mut v = version("v1", false, 0);
        for t in &mut v.tests {
            t.summary = if t.name == "test_prep" { reach } else { idle }.to_string();
        }
        v
    };
    let on_path = summaries("prep create ephemeral session", "audit all");
    let off_path = summaries("audit all", "prep create ephemeral session");
    let rag_render = |v| render_enforcement(&Gate::new(&reg).config(rag.clone()).run(v));
    assert_ne!(rag_render(&on_path), rag_render(&off_path), "summaries must steer RAG");
    for v in [&on_path, &off_path] {
        let (uncached, cached) = renders(&reg, &rag, GateOptions::default, &cache, v);
        assert_eq!(cached, uncached);
    }
}

// ---------------------------------------------------------------------------
// CLI: full stdout byte-identity, cache on vs off.
// ---------------------------------------------------------------------------

const CLI_SYSTEM: &str = r#"
struct Order { id: int, paid: bool, cancelled: bool }
global orders: map<int, Order>;
global shipped: map<int, int>;

fn ship_order(o: Order, courier: int) { shipped.put(o.id, courier); }

fn checkout_ship(oid: int, courier: int) {
    let o: Order = orders.get(oid);
    if (o == null || o.paid == false || o.cancelled) { return; }
    ship_order(o, courier);
}

fn admin_reship(oid: int, courier: int) {
    let ord: Order = orders.get(oid);
    if (ord == null || ord.paid == false) { return; }
    ship_order(ord, courier);
}

fn seed(id: int, paid: bool, cancelled: bool) {
    orders.put(id, new Order { id: id, paid: paid, cancelled: cancelled });
}

fn test_checkout() { seed(1, true, false); checkout_ship(1, 7); assert(shipped.contains(1), "ok"); }
fn test_reship() { seed(2, true, false); admin_reship(2, 9); assert(shipped.contains(2), "ok"); }
"#;

const CLI_RULES: &str =
    "when calling ship_order, require o != null && o.paid == true && o.cancelled == false\n";

struct CliFixture {
    dir: PathBuf,
}

impl CliFixture {
    fn new(tag: &str) -> CliFixture {
        let dir =
            std::env::temp_dir().join(format!("lisa-cache-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sys")).expect("mkdir");
        std::fs::write(dir.join("sys/orders.sir"), CLI_SYSTEM).expect("sir");
        std::fs::write(dir.join("rules.txt"), CLI_RULES).expect("rules");
        CliFixture { dir }
    }

    fn gate(&self, extra: &[&str]) -> (i32, String, String) {
        let sys = self.dir.join("sys").to_string_lossy().into_owned();
        let rules = self.dir.join("rules.txt").to_string_lossy().into_owned();
        let mut args = vec!["gate", "--system", &sys, "--rules", &rules];
        args.extend_from_slice(extra);
        let out = Command::new(env!("CARGO_BIN_EXE_lisa"))
            .args(&args)
            .output()
            .expect("spawn lisa");
        (
            out.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }
}

impl Drop for CliFixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Zero every `"wall_ms":N` in a JSON artifact — the one field that
/// legitimately differs between any two runs, cached or not.
fn normalize_wall(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find("\"wall_ms\":") {
        let tail = &rest[at + "\"wall_ms\":".len()..];
        let digits = tail.chars().take_while(char::is_ascii_digit).count();
        out.push_str(&rest[..at]);
        out.push_str("\"wall_ms\":0");
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

#[test]
fn cli_stdout_is_byte_identical_cache_on_vs_off() {
    let fx = CliFixture::new("stdout");
    let (code_off, out_off, _) = fx.gate(&["--cache", "off"]);
    let (code_on, out_on, _) = fx.gate(&["--cache", "on"]);
    let (code_default, out_default, _) = fx.gate(&[]);
    assert_eq!(code_off, 1, "{out_off}");
    assert_eq!(code_on, code_off);
    assert_eq!(code_default, code_off);
    assert_eq!(out_on, out_off, "cache flipped a stdout byte");
    assert_eq!(out_default, out_off, "default (cache on) drifted from --cache off");

    let (_, json_off, _) = fx.gate(&["--cache", "off", "--format", "json"]);
    let (_, json_on, _) = fx.gate(&["--cache", "on", "--format", "json"]);
    assert_eq!(
        normalize_wall(&json_on),
        normalize_wall(&json_off),
        "cache flipped a JSON byte (beyond wall_ms)"
    );
}

#[test]
fn cli_durable_state_is_byte_identical_cache_on_vs_off() {
    let fx = CliFixture::new("state");
    let state_off = fx.dir.join("state-off");
    let state_on = fx.dir.join("state-on");
    let (code_off, out_off, _) =
        fx.gate(&["--cache", "off", "--state", &state_off.to_string_lossy()]);
    let (code_on, out_on, _) =
        fx.gate(&["--cache", "on", "--state", &state_on.to_string_lossy()]);
    assert_eq!(code_on, code_off);
    assert_eq!(out_on, out_off, "durable summary drifted under caching");
    let wal_off = std::fs::read(state_off.join("wal.log")).expect("wal off");
    let wal_on = std::fs::read(state_on.join("wal.log")).expect("wal on");
    assert_eq!(wal_on, wal_off, "wal.log bytes must not depend on caching");
}
