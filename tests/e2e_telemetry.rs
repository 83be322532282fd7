//! End-to-end telemetry smoke: `lisa gate --trace-out/--metrics-out` on
//! the ZooKeeper corpus case emits a valid Chrome trace covering every
//! pipeline stage (analysis, concolic, SMT, store) and a metrics snapshot
//! with live solver counters — and enabling telemetry never perturbs the
//! verdict artifact (the byte-identical guarantee from the durable gate).

use std::path::PathBuf;
use std::process::Command;

use lisa::Json;
use lisa_corpus::case;

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    /// Dump the regressed ZooKeeper corpus version to `.sir` files plus
    /// the ground-truth rule, so the CLI runs the paper's flagship case.
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("lisa-e2e-tel-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sys")).expect("mkdir");
        let case = case("zk-ephemeral").expect("zookeeper corpus case");
        for m in &case.versions.regressed.program.modules {
            let name = m.name.replace(['/', '\\'], "_");
            std::fs::write(dir.join(format!("sys/{name}.sir")), &m.source).expect("sir");
        }
        // The ground-truth rule plus one conjoining atoms the path
        // condition leaves free: its violation query negates to a clause
        // of free literals, which unit propagation alone cannot settle —
        // the solver must branch, exercising the decision counters.
        let callee = case.ground_truth.target.callee();
        let rules = format!(
            "when calling {callee}, require {}\n\
             when calling {callee}, require s != null && s.timeout > 0 && s.id > 0\n",
            case.ground_truth.condition_src,
        );
        std::fs::write(dir.join("rules.txt"), rules).expect("rules");
        Fixture { dir }
    }

    fn path(&self, rel: &str) -> String {
        self.dir.join(rel).to_string_lossy().into_owned()
    }

    /// Run the CLI; returns the exit code and raw stdout bytes (stdout is
    /// the artifact channel, so byte comparisons happen on it directly).
    fn run(&self, args: &[&str]) -> (i32, Vec<u8>) {
        let out =
            Command::new(env!("CARGO_BIN_EXE_lisa")).args(args).output().expect("spawn lisa");
        (out.status.code().unwrap_or(-1), out.stdout)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn gate_trace_covers_every_pipeline_stage() {
    let fx = Fixture::new("trace");
    let trace = fx.path("trace.json");
    let metrics = fx.path("metrics.json");
    let (code, _) = fx.run(&[
        "gate",
        "--system",
        &fx.path("sys"),
        "--rules",
        &fx.path("rules.txt"),
        "--state",
        &fx.path("state"),
        "--format",
        "json",
        "--trace-out",
        &trace,
        "--metrics-out",
        &metrics,
    ]);
    assert_eq!(code, 1, "the regressed version must block");

    // The trace parses under the project's own strict JSON reader and
    // holds complete-span events for every pipeline layer.
    let trace_text = std::fs::read_to_string(&trace).expect("trace file");
    let parsed = Json::parse(&trace_text).expect("trace is valid JSON");
    let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
        panic!("no traceEvents array")
    };
    assert!(!events.is_empty(), "trace must not be empty");
    let names: Vec<&str> = events.iter().filter_map(|e| e.str_of("name")).collect();
    for expected in [
        "lang.load",
        "lang.parse",
        "lang.check",
        "service.durable_run",
        "gate.enforce",
        "pipeline.rule",
        "analysis.callgraph",
        "analysis.tree",
        "concolic.run",
        "concolic.test",
        "smt.check",
        "store.recover",
    ] {
        assert!(names.contains(&expected), "missing span `{expected}` in {names:?}");
    }
    // The parse and the type check are children of the load, and the
    // front-end spans carry no detail string.
    let span_args = |name: &str| {
        events
            .iter()
            .find(|e| e.str_of("name") == Some(name))
            .and_then(|e| e.get("args"))
            .unwrap_or_else(|| panic!("{name} span args"))
    };
    let load_id = span_args("lang.load").u64_of("id").expect("lang.load id");
    for child in ["lang.parse", "lang.check"] {
        assert_eq!(span_args(child).u64_of("parent"), Some(load_id), "{child} parent");
    }
    for name in ["lang.load", "lang.parse", "lang.check"] {
        assert!(span_args(name).get("detail").is_none(), "{name} has a detail string");
    }
    // Span events carry timing and argument payloads Perfetto can render.
    let smt = events
        .iter()
        .find(|e| e.str_of("name") == Some("smt.check"))
        .expect("smt.check span");
    assert_eq!(smt.str_of("ph"), Some("X"), "complete event");
    assert!(smt.get("dur").is_some() && smt.get("ts").is_some());
    let args = smt.get("args").expect("span args");
    assert!(args.get("decisions").is_some(), "solver introspection args");

    // The metrics snapshot parses and the SMT counters are live.
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics file");
    let parsed = Json::parse(&metrics_text).expect("metrics is valid JSON");
    let counters = parsed.get("counters").expect("counters object");
    assert!(counters.u64_of("smt.queries").unwrap_or(0) > 0, "{metrics_text}");
    assert!(counters.u64_of("smt.decisions").unwrap_or(0) > 0, "{metrics_text}");
    assert!(counters.u64_of("smt.clauses").unwrap_or(0) > 0, "{metrics_text}");
    // Every query is counted exactly once, under exactly one outcome.
    let outcomes: u64 = ["smt.outcome.sat", "smt.outcome.unsat", "smt.outcome.unknown"]
        .iter()
        .map(|name| counters.u64_of(name).unwrap_or(0))
        .sum();
    assert_eq!(Some(outcomes), counters.u64_of("smt.queries"), "{metrics_text}");
    assert!(counters.u64_of("concolic.steps").unwrap_or(0) > 0, "{metrics_text}");
    assert!(counters.u64_of("analysis.chains").unwrap_or(0) > 0, "{metrics_text}");
    assert!(counters.u64_of("store.appends").unwrap_or(0) > 0, "{metrics_text}");
    assert!(counters.u64_of("verdict.violated").unwrap_or(0) > 0, "{metrics_text}");
    // Per-stage latency histograms back the bench breakdowns.
    let hists = parsed.get("histograms").expect("histograms object");
    for h in ["analysis.callgraph_us", "concolic.run_us", "pipeline.judge_us", "smt.check_us"] {
        let entry = hists.get(h).unwrap_or_else(|| panic!("missing histogram {h}"));
        assert!(entry.u64_of("count").unwrap_or(0) > 0, "{h} must have observations");
    }
}

#[test]
fn telemetry_never_perturbs_the_verdict_artifact() {
    let fx = Fixture::new("determinism");
    let base_args = |state: &str| {
        [
            "gate".to_string(),
            "--system".into(),
            fx.path("sys"),
            "--rules".into(),
            fx.path("rules.txt"),
            "--state".into(),
            fx.path(state),
            "--format".into(),
            "json".into(),
        ]
    };

    // Telemetry fully off.
    let off: Vec<String> = base_args("state-off").to_vec();
    let off_refs: Vec<&str> = off.iter().map(String::as_str).collect();
    let (code_off, stdout_off) = fx.run(&off_refs);

    // Telemetry fully on (spans + metrics + verbose notes).
    let mut on: Vec<String> = base_args("state-on").to_vec();
    on.extend([
        "--trace-out".into(),
        fx.path("t.json"),
        "--metrics-out".into(),
        fx.path("m.json"),
        "--verbose".into(),
    ]);
    let on_refs: Vec<&str> = on.iter().map(String::as_str).collect();
    let (code_on, stdout_on) = fx.run(&on_refs);

    assert_eq!(code_off, code_on, "same decision either way");
    assert_eq!(stdout_off, stdout_on, "stdout artifact must be byte-identical");

    // The journaled verdict artifact — the PR 2 determinism guarantee —
    // is byte-identical too: telemetry is a write-only side channel.
    let wal_off = std::fs::read(fx.dir.join("state-off/wal.log")).expect("off journal");
    let wal_on = std::fs::read(fx.dir.join("state-on/wal.log")).expect("on journal");
    assert_eq!(wal_off, wal_on, "journaled verdicts must be byte-identical");
}

#[test]
fn durable_gate_is_one_engine_run() {
    // A durable run is one call into the gate engine, not one per rule:
    // the two-rule fixture counts one gate run and one `gate.enforce`
    // span.
    let fx = Fixture::new("one-run");
    let trace = fx.path("trace.json");
    let metrics = fx.path("metrics.json");
    let (code, _) = fx.run(&[
        "gate",
        "--system",
        &fx.path("sys"),
        "--rules",
        &fx.path("rules.txt"),
        "--state",
        &fx.path("state"),
        "--trace-out",
        &trace,
        "--metrics-out",
        &metrics,
    ]);
    assert_eq!(code, 1, "the regressed version must block");
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics file");
    assert!(metrics_text.contains("\"gate.runs\":1"), "{metrics_text}");
    let parsed = Json::parse(&std::fs::read_to_string(&trace).expect("trace file"))
        .expect("trace is valid JSON");
    let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
        panic!("no traceEvents array")
    };
    let enforce_spans =
        events.iter().filter(|e| e.str_of("name") == Some("gate.enforce")).count();
    assert_eq!(enforce_spans, 1, "one gate.enforce span per durable run");
    let rule_spans = events.iter().filter(|e| e.str_of("name") == Some("pipeline.rule")).count();
    assert_eq!(rule_spans, 2, "both rules are checked inside that one run");
}
