//! One clock per layer: a span is its layer's only timer.
//!
//! One corpus version is gated durably, at one worker and with the cache
//! off, first with telemetry at `Full` and then at `MetricsOnly`. Every
//! span name the full trace holds must have a `<name>_us` histogram at
//! `MetricsOnly` with exactly that many observations; `MetricsOnly` keeps
//! no span; the histogram sums nest like their spans; and closing a span
//! whose histogram exists allocates nothing. Telemetry is process-global
//! and a counting allocator is installed, so the binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;

use lisa::{gate_durable, DurableOptions, GateOptions, Json, PipelineConfig, RuleRegistry};
use lisa_analysis::TargetSpec;
use lisa_oracle::{infer_rules, rescope, Scope};
use lisa_telemetry::TelemetryConfig;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The layers a rule check nests under its `pipeline.rule` span.
const RULE_CHILDREN: [&str; 6] = [
    "analysis.callgraph",
    "analysis.tree",
    "pipeline.aliases",
    "pipeline.select",
    "concolic.run",
    "pipeline.judge",
];

/// `lisa gate --system <system> --state <state> --workers 1 --cache off`
/// over `registry`, in process.
fn gate(system: &Path, state: &Path, registry: &RuleRegistry) {
    let version = lisa::load_system(system.to_str().expect("utf-8 path"), "test_")
        .expect("version loads");
    let durable = DurableOptions {
        state_dir: state.to_path_buf(),
        workers: 1,
        cache: None,
        ..DurableOptions::default()
    };
    let config = PipelineConfig::default();
    gate_durable(registry, &version, &config, &GateOptions::default(), &durable)
        .expect("durable gate");
}

#[test]
fn each_span_is_its_layers_one_clock() {
    let case = lisa_corpus::case("zk-ephemeral").expect("corpus case");
    let mut registry = RuleRegistry::new();
    for rule in infer_rules(case.original_ticket()).expect("rules mined").rules {
        let rule = match &rule.target {
            TargetSpec::Call { .. } => rule,
            _ => rescope(&rule, Scope::Generalized).expect("rescope"),
        };
        registry.register(rule);
    }
    let root = std::env::temp_dir().join(format!("lisa-one-clock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let system = root.join("sys");
    std::fs::create_dir_all(&system).expect("mkdir");
    for (i, module) in case.versions.regressed.program.modules.iter().enumerate() {
        let file = system.join(format!("{i:02}-{}.sir", module.name.replace('/', "__")));
        std::fs::write(&file, lisa_lang::pretty::print_module(module)).expect("write module");
    }

    // Full: count the spans by name.
    lisa_telemetry::init(TelemetryConfig::Full);
    lisa_telemetry::reset();
    gate(&system, &root.join("state-full"), &registry);
    let mut spans: BTreeMap<String, u64> = BTreeMap::new();
    for line in lisa_telemetry::ndjson().lines() {
        let record = Json::parse(line).expect("ndjson line");
        if record.str_of("type") == Some("span") {
            let name = record.str_of("name").expect("span name").to_string();
            *spans.entry(name).or_default() += 1;
        }
    }
    for layer in ["lang.load", "service.durable_run", "pipeline.rule", "smt.check", "store.fsync"] {
        assert!(spans.contains_key(layer), "no {layer} span in the full trace: {spans:?}");
    }

    // MetricsOnly: the same gate, timed by histograms alone.
    lisa_telemetry::init(TelemetryConfig::MetricsOnly);
    lisa_telemetry::reset();
    gate(&system, &root.join("state-metrics"), &registry);
    let hists = lisa_telemetry::histograms_snapshot();

    // (a) One observation per span, layer by layer.
    for (name, count) in &spans {
        let h = hists.get(&format!("{name}_us")).unwrap_or_else(|| panic!("no {name}_us"));
        assert_eq!(h.count, *count, "{name}_us counts each {name} span once");
    }
    // (b) No span is kept.
    assert!(!lisa_telemetry::ndjson().contains("\"type\":\"span\""), "MetricsOnly kept a span");
    // (c) A rule's layers fit inside it: each duration is truncated to
    // whole microseconds by the same clock, so the sums nest exactly.
    let sum = |name: &str| hists[&format!("{name}_us")].sum;
    let children: u64 = RULE_CHILDREN.iter().map(|c| sum(c)).sum();
    assert!(
        sum("pipeline.rule") >= children,
        "pipeline.rule_us sums {} us, its layers {children} us",
        sum("pipeline.rule")
    );
    // (d) Opening and closing a span whose histogram exists allocates
    // nothing.
    let before = allocs();
    drop(lisa_telemetry::span("pipeline.rule"));
    let spent = allocs() - before;
    assert_eq!(spent, 0, "a MetricsOnly span allocated {spent} times");
    let after = lisa_telemetry::histograms_snapshot()["pipeline.rule_us"].count;
    assert_eq!(after, hists["pipeline.rule_us"].count + 1, "and it was timed");

    lisa_telemetry::init(TelemetryConfig::Off);
    let _ = std::fs::remove_dir_all(&root);
}
