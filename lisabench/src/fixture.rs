//! The corpus on disk: every case's four versions as `.sir`
//! directories and its mined rule as an authoring-template rules file,
//! so each request goes through the same `load_system` / `load_rules`
//! path as `lisa gate` and `lisa serve`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use lisa::{Gate, GateCache, GateConfig, GateDecision, RuleRegistry};
use lisa_analysis::TargetSpec;
use lisa_concolic::SystemVersion;
use lisa_corpus::{all_cases, Case};
use lisa_oracle::{infer_rules, rescope, Scope, SemanticRule};

/// The four versions every case ships, in corpus order.
pub const KINDS: [&str; 4] = ["buggy", "fixed", "regressed", "latest"];

/// One (case, version) on disk with its ground-truth decision.
#[derive(Debug, Clone)]
pub struct Input {
    pub case: String,
    pub kind: &'static str,
    pub system: String,
    pub rules: String,
    pub expect: GateDecision,
}

impl Input {
    pub fn label(&self) -> String {
        format!("{}/{}", self.case, self.kind)
    }
}

/// The corpus as written to disk.
#[derive(Debug, Clone)]
pub struct Fixture {
    pub inputs: Vec<Input>,
}

/// Ground truth: buggy and regressed versions block, the fixed version
/// passes, and the latest version blocks exactly when it carries the
/// case's latent bug.
pub fn expected(case: &Case, kind: &str) -> GateDecision {
    match kind {
        "fixed" => GateDecision::Pass,
        "latest" if !case.ground_truth.latent_bug_in_latest => GateDecision::Pass,
        _ => GateDecision::Block,
    }
}

/// The case's rule mined from its original ticket; builtin-family rules
/// are generalized before enforcement.
pub fn mined_rule(case: &Case) -> Result<SemanticRule, String> {
    let out = infer_rules(case.original_ticket())
        .map_err(|e| format!("{}: inference failed: {e}", case.meta.id))?;
    let rule = out
        .rules
        .into_iter()
        .next()
        .ok_or(format!("{}: no rule mined", case.meta.id))?;
    match &rule.target {
        TargetSpec::Call { .. } => Ok(rule),
        _ => rescope(&rule, Scope::Generalized)
            .ok_or(format!("{}: builtin rule does not rescope", case.meta.id)),
    }
}

/// The authoring-template sentence that `load_rules` parses back into
/// `rule`.
pub fn template(rule: &SemanticRule) -> Result<String, String> {
    match &rule.target {
        TargetSpec::Call { callee } => Ok(format!(
            "when calling {callee}, require {}",
            rule.condition_src
        )),
        TargetSpec::BuiltinInSync { name } => Ok(format!("never call {name} while holding a lock")),
        TargetSpec::BuiltinInCaller { name, caller } => {
            Ok(format!("never call {name} inside {caller}"))
        }
        other => Err(format!(
            "{}: target {other} has no authoring template",
            rule.id
        )),
    }
}

fn write_version(dir: &Path, version: &SystemVersion) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    for (i, module) in version.program.modules.iter().enumerate() {
        // `load_system` reads files in name order; the index keeps the
        // corpus module order, and `/` in module names becomes `__`.
        let file = dir.join(format!("{i:02}-{}.sir", module.name.replace('/', "__")));
        std::fs::write(&file, lisa_lang::pretty::print_module(module))
            .map_err(|e| format!("write {}: {e}", file.display()))?;
    }
    Ok(())
}

/// Scheduler width of the gate workloads (`--workers 1`).
///
/// A gate takes about a millisecond, so at `--workers auto` on two
/// virtual cores its time is mostly the wake-up of the second worker,
/// which the host hypervisor decides: on the reference machine width 2
/// ran slower than width 1 and its p50 moved by half from run to run,
/// while width 1 stays within a few percent. The scheduler's fan-out is
/// still measured, at `auto`, in the traced run (`sched.steal_ratio`).
pub const GATE_WORKERS: &str = "1";

/// `lisa gate`'s configuration with only `--workers <workers>` set: all
/// tests, cache on.
pub fn gate_config_with(workers: &str) -> GateConfig {
    let flags = HashMap::from([("workers".to_string(), workers.to_string())]);
    GateConfig::from_args(&flags).expect("gate flags parse")
}

/// The gate workloads' configuration, at [`GATE_WORKERS`].
pub fn gate_config() -> GateConfig {
    gate_config_with(GATE_WORKERS)
}

/// Gate `version` against `rules` exactly as `lisa gate` does, with
/// `cache` (a fresh one when `None`).
pub fn gate(
    cfg: &GateConfig,
    rules: &[SemanticRule],
    version: &SystemVersion,
    cache: Option<&Arc<GateCache>>,
) -> lisa::EnforcementReport {
    let ids: Vec<String> = rules.iter().map(|r| r.id.clone()).collect();
    let mut registry = RuleRegistry::new();
    for r in rules {
        registry.register(r.clone());
    }
    let fresh;
    let cache = match cache {
        Some(c) => c,
        None => {
            fresh = cfg.gate_cache().expect("gate cache is on by default");
            &fresh
        }
    };
    Gate::new(&registry)
        .config(cfg.pipeline.clone())
        .workers(cfg.workers)
        .options(cfg.gate_options(&ids))
        .cache(cache)
        .run(version)
}

/// Write the corpus under `root` and check the round trip: each loaded
/// rule is equivalent to the ground-truth condition, and each on-disk
/// version gates to the same decision as its in-memory version and as
/// ground truth.
pub fn write_and_check(root: &Path) -> Result<Fixture, String> {
    let cfg = gate_config();
    let mut inputs = Vec::new();
    for case in all_cases() {
        let id = case.meta.id.clone();
        let rule = mined_rule(&case)?;
        let rules_path = root.join("rules").join(format!("{id}.txt"));
        std::fs::create_dir_all(root.join("rules")).map_err(|e| format!("mkdir rules: {e}"))?;
        std::fs::write(&rules_path, format!("# {id}\n{}\n", template(&rule)?))
            .map_err(|e| format!("write {}: {e}", rules_path.display()))?;
        let rules_str = rules_path.to_string_lossy().into_owned();
        let loaded = lisa::load_rules(&rules_str)?;
        let truth = lisa_smt::parse_cond(&case.ground_truth.condition_src)
            .map_err(|e| format!("{id}: ground truth does not parse: {e}"))?;
        if loaded.len() != 1 || !lisa_smt::equivalent(&loaded[0].condition, &truth) {
            return Err(format!(
                "{id}: loaded rule is not equivalent to the ground truth"
            ));
        }
        for (kind, version) in KINDS.iter().zip(case.versions.all()) {
            let dir = root.join("sys").join(format!("{id}-{kind}"));
            write_version(&dir, version)?;
            let system = dir.to_string_lossy().into_owned();
            let on_disk = lisa::load_system(&system, &cfg.pipeline.test_prefix)?;
            let expect = expected(&case, kind);
            let from_disk = gate(&cfg, &loaded, &on_disk, None).decision;
            let in_memory = gate(&cfg, &loaded, version, None).decision;
            if from_disk != in_memory || from_disk != expect {
                return Err(format!(
                    "{id}/{kind}: on-disk {from_disk}, in-memory {in_memory}, ground truth {expect}"
                ));
            }
            inputs.push(Input {
                case: id.clone(),
                kind,
                system,
                rules: rules_str.clone(),
                expect,
            });
        }
    }
    Ok(Fixture { inputs })
}
