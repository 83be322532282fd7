//! Determinism property suite for the rule-parallel gate.
//!
//! The gate's contract is that worker count is invisible in every
//! artifact: a seeded, randomized registry gated at width 1 and width 8
//! must render byte-identical reports, emit byte-identical JSON (modulo
//! wall-clock fields), and journal byte-identical WAL records (widths
//! 1/2/4/8: fresh, resumed and cross-version runs) — with
//! the version-scoped cache on *and* off, and under seeded fault
//! injection.

use std::sync::Arc;

use lisa::report::render_enforcement;
use lisa::{
    gate_durable, DurableOptions, FaultInjector, FaultPlan, Gate, GateCache, GateOptions,
    PipelineConfig, RuleRegistry, TestSelection,
};
use lisa_analysis::TargetSpec;
use lisa_concolic::SystemVersion;
use lisa_corpus::{all_cases, case};
use lisa_lang::Program;
use lisa_oracle::{infer_rules, rescope, Scope, SemanticRule};
use lisa_store::{scan, GateEvent};

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Every rule the corpus oracle can mine, in a fixed order — the pool the
/// seeded registries draw from.
fn rule_pool() -> Vec<SemanticRule> {
    let mut pool = Vec::new();
    for case in all_cases() {
        let Ok(out) = infer_rules(case.original_ticket()) else { continue };
        for rule in out.rules {
            let rule = match &rule.target {
                TargetSpec::Call { .. } => rule,
                _ => rescope(&rule, Scope::Generalized).expect("rescope"),
            };
            pool.push(rule);
        }
    }
    assert!(pool.len() >= 4, "corpus pool too small for property runs");
    pool
}

/// A randomized registry: seeded Fisher-Yates shuffle of the pool, then a
/// seeded prefix of 2..=5 rules. Same seed → same registry.
fn seeded_registry(pool: &[SemanticRule], seed: u64) -> RuleRegistry {
    let mut s = seed | 1;
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    for i in (1..idx.len()).rev() {
        let j = (xorshift(&mut s) as usize) % (i + 1);
        idx.swap(i, j);
    }
    let keep = 2 + (xorshift(&mut s) as usize) % 4;
    let mut reg = RuleRegistry::new();
    for &i in idx.iter().take(keep) {
        reg.register(pool[i].clone());
    }
    reg
}

fn config() -> PipelineConfig {
    PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() }
}

/// Zero every `"wall_ms":N` — the one field that legitimately differs
/// between two runs of the same gate.
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
fn seeded_registries_are_width_invariant_cache_on_and_off() {
    let pool = rule_pool();
    let zk = case("zk-ephemeral").expect("case");
    for seed in [3, 17, 40, 99] {
        let reg = seeded_registry(&pool, seed);
        for version in [&zk.versions.regressed, &zk.versions.fixed] {
            for cached in [false, true] {
                let run = |workers: usize| {
                    let mut gate = Gate::new(&reg).config(config()).workers(workers);
                    let cache;
                    if cached {
                        cache = Arc::new(GateCache::new());
                        gate = gate.cache(&cache);
                    }
                    let report = gate.run(version);
                    (render_enforcement(&report), lisa::json::enforcement_json(&report))
                };
                let (text1, json1) = run(1);
                let (text8, json8) = run(8);
                assert_eq!(
                    text8, text1,
                    "seed {seed} @ {} (cache {cached}): report drifted across widths",
                    version.label
                );
                assert_eq!(
                    normalize_wall(&json8),
                    normalize_wall(&json1),
                    "seed {seed} @ {} (cache {cached}): JSON drifted across widths",
                    version.label
                );
            }
        }
    }
}

/// How a durable width-invariance case prepares its state dir.
#[derive(Clone, Copy, Debug)]
enum DurableCase {
    /// A fresh state dir.
    Fresh,
    /// A journal cut right after its first `RuleCheckFinished`: the run
    /// resumes, reusing that verdict.
    Resume,
    /// A previous version gated first in the same state dir, cache on:
    /// the regressed run reuses nothing from it.
    CrossVersion,
}

/// The regressed ZooKeeper version with one statement added to the body
/// of `prep_request_create`: a previous version that differs from it in
/// one function only.
fn previous_version(regressed: &SystemVersion) -> SystemVersion {
    let sources: Vec<(String, String)> = regressed
        .program
        .modules
        .iter()
        .map(|m| {
            let mut src = m.source.to_string();
            if let Some(at) = src.find("fn prep_request_create(") {
                let body = at + src[at..].find('{').expect("function body");
                src.insert_str(body + 1, " let probe: int = 0;");
            }
            (m.name.clone(), src)
        })
        .collect();
    let refs: Vec<(&str, &str)> = sources.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    let program = Program::parse(&refs).expect("previous version parses");
    SystemVersion::new("v3-previous", program, regressed.tests.clone())
}

#[test]
fn durable_wal_bytes_are_width_invariant() {
    use DurableCase::*;
    let pool = rule_pool();
    let zk = case("zk-ephemeral").expect("case");
    let previous = previous_version(&zk.versions.regressed);
    for seed in [7, 23] {
        let reg = seeded_registry(&pool, seed);
        let gate = |dir: &std::path::Path, workers: usize, prev: bool| {
            let durable = DurableOptions {
                state_dir: dir.to_path_buf(),
                workers,
                cache: Some(Arc::new(GateCache::new())),
                ..DurableOptions::default()
            };
            let version = if prev { &previous } else { &zk.versions.regressed };
            gate_durable(&reg, version, &config(), &GateOptions::default(), &durable)
                .expect("durable gate run")
        };
        let run = |case: DurableCase, workers: usize, resume_from: &[u8]| {
            let dir = std::env::temp_dir()
                .join(format!("lisa-par-prop-{seed}-{case:?}-w{workers}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("mkdir");
            match case {
                Resume => {
                    std::fs::write(dir.join("wal.log"), resume_from).expect("cut journal")
                }
                CrossVersion => {
                    gate(&dir, workers, true);
                }
                Fresh => {}
            }
            let report = gate(&dir, workers, false);
            let wal = std::fs::read(dir.join("wal.log")).expect("wal");
            let _ = std::fs::remove_dir_all(&dir);
            let counts = (report.reused, report.fresh);
            (report.verdicts_text(), report.render(), wal, counts)
        };

        // The resume case starts from the width-1 journal, cut after the
        // record that settles its first rule.
        let (_, _, full_wal, _) = run(Fresh, 1, &[]);
        let scanned = scan(&full_wal);
        let first_finished = scanned
            .records
            .iter()
            .position(|r| matches!(GateEvent::decode(r), Ok(GateEvent::RuleCheckFinished { .. })))
            .expect("a finished rule");
        let cut = &full_wal[..scanned.boundaries[first_finished] as usize];

        for case in [Fresh, Resume, CrossVersion] {
            let base = run(case, 1, cut);
            let (reused, _) = base.3;
            match case {
                Resume => assert_eq!(reused, 1, "seed {seed}: resume reuses one verdict"),
                CrossVersion => assert_eq!(reused, 0, "seed {seed}: a previous version donated"),
                Fresh => {}
            }
            for workers in [2, 4, 8] {
                let (verdicts, render, wal, counts) = run(case, workers, cut);
                let at = format!("seed {seed}, {case:?} @ width {workers}");
                assert_eq!(verdicts, base.0, "{at}: verdict text drifted across widths");
                assert_eq!(render, base.1, "{at}: durable summary drifted across widths");
                assert_eq!(wal, base.2, "{at}: wal.log bytes drifted across widths");
                assert_eq!(counts, base.3, "{at}: reuse counts drifted across widths");
            }
        }
    }
}

#[test]
fn fault_injected_gates_are_width_invariant() {
    let pool = rule_pool();
    let zk = case("zk-ephemeral").expect("case");
    for seed in [5, 11, 31] {
        let reg = seeded_registry(&pool, seed);
        let ids: Vec<String> = reg.rules().iter().map(|r| r.id.clone()).collect();
        let run = |workers: usize| {
            let options = GateOptions {
                faults: Some(FaultInjector::new(FaultPlan::random(seed, 0.5, &ids))),
                ..GateOptions::default()
            };
            let report =
                Gate::new(&reg).config(config()).workers(workers).options(options).run(&zk.versions.regressed);
            (render_enforcement(&report), report.decision)
        };
        let (text1, decision1) = run(1);
        let (text8, decision8) = run(8);
        assert_eq!(decision8, decision1, "seed {seed}: decision flipped across widths");
        assert_eq!(text8, text1, "seed {seed}: faulted report drifted across widths");
    }
}
