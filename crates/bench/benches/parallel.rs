//! Rule-parallel gate scaling: the full corpus rule set gated cold at
//! widths 1/2/4/8, plus a stall-overlap workload whose per-rule injected
//! stalls can only be hidden by running rules concurrently. Writes
//! `BENCH_parallel.json` (per-width wall clock, speedups, task and
//! cache-lock counters) at the workspace root.
//!
//! Two scaling gates:
//!
//! - the stall-overlap workload asserts >= 2x at width 4 and >= 3x at
//!   width 8 *unconditionally* — stalls are `thread::sleep`, so they
//!   overlap even on a single hardware thread, making this a pure
//!   worker-pool correctness check that is machine-independent;
//! - the cold corpus workload asserts the same thresholds only when the
//!   machine actually has that many hardware threads, since compute-bound
//!   speedup is physically capped by the core count.
//!
//! Both workloads also re-assert the determinism contract: every width
//! must render byte-identical enforcement reports.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lisa::report::render_enforcement;
use lisa::{
    FaultInjector, FaultKind, FaultPlan, Gate, GateCache, GateOptions, PipelineConfig,
    RuleRegistry, TestSelection,
};
use lisa_corpus::{all_cases, case};
use lisa_oracle::infer_rules;

/// Timed repetitions per width; the minimum is reported.
const SAMPLES: usize = 3;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Injected stall per rule in the overlap workload. Large enough to
/// dwarf the actual check cost of the tiny fixture registry.
const STALL: Duration = Duration::from_millis(40);

fn corpus_registry() -> RuleRegistry {
    let mut registry = RuleRegistry::new();
    for case in all_cases() {
        if let Ok(out) = infer_rules(case.original_ticket()) {
            for r in out.rules {
                registry.register(r);
            }
        }
    }
    registry
}

fn config() -> PipelineConfig {
    PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() }
}

/// Min-of-samples cold gate wall clock at `workers`, plus the rendered
/// report of the last run (for the cross-width byte-identity assert).
fn time_cold(registry: &RuleRegistry, version: &lisa_concolic::SystemVersion, workers: usize)
-> (f64, String) {
    let mut best_ms = f64::INFINITY;
    let mut render = String::new();
    for _ in 0..SAMPLES {
        // A fresh cache per run: this is the cold path, where concolic
        // runs and solver queries dominate and parallelism pays.
        let cache = Arc::new(GateCache::new());
        let gate = Gate::new(registry).config(config()).workers(workers).cache(&cache);
        let t0 = Instant::now();
        let report = gate.run(version);
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        render = render_enforcement(&report);
    }
    (best_ms, render)
}

/// Min-of-samples gate wall clock with a `STALL` injected on every rule:
/// rules spend their time in `thread::sleep`, so the speedup at width N
/// measures pure rule-level overlap, independent of core count.
fn time_stalled(registry: &RuleRegistry, version: &lisa_concolic::SystemVersion, workers: usize)
-> (f64, String) {
    let mut plan = FaultPlan::new();
    for rule in registry.rules() {
        plan = plan.inject(rule.id.clone(), FaultKind::Stall);
    }
    let mut best_ms = f64::INFINITY;
    let mut render = String::new();
    for _ in 0..SAMPLES {
        let mut faults = FaultInjector::new(plan.clone());
        faults.stall = STALL;
        let options = GateOptions { faults: Some(faults), ..GateOptions::default() };
        let gate = Gate::new(registry).config(config()).workers(workers).options(options);
        let t0 = Instant::now();
        let report = gate.run(version);
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        render = render_enforcement(&report);
    }
    (best_ms, render)
}

fn main() {
    lisa_telemetry::init(lisa_telemetry::TelemetryConfig::MetricsOnly);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let registry = corpus_registry();
    let zk = case("zk-ephemeral").expect("case");
    let version = &zk.versions.regressed;
    println!("\n== parallel/gate_scaling ({} rules, {cores} core(s)) ==", registry.len());

    // Cold corpus workload.
    let mut cold_ms = Vec::new();
    let mut cold_render = Vec::new();
    for &w in &WIDTHS {
        let (ms, render) = time_cold(&registry, version, w);
        println!("parallel/cold/workers_{w}    min {ms:>9.2} ms/run  ({SAMPLES} samples)");
        cold_ms.push(ms);
        cold_render.push(render);
    }
    for (i, render) in cold_render.iter().enumerate() {
        assert_eq!(
            *render, cold_render[0],
            "width {} report drifted from width 1",
            WIDTHS[i]
        );
    }

    // Stall-overlap workload.
    let mut stall_ms = Vec::new();
    let mut stall_render = Vec::new();
    for &w in &WIDTHS {
        let (ms, render) = time_stalled(&registry, version, w);
        println!("parallel/stall/workers_{w}   min {ms:>9.2} ms/run  ({SAMPLES} samples)");
        stall_ms.push(ms);
        stall_render.push(render);
    }
    for (i, render) in stall_render.iter().enumerate() {
        assert_eq!(
            *render, stall_render[0],
            "stalled width {} report drifted from width 1",
            WIDTHS[i]
        );
    }

    let speedup = |ms: &[f64], w: usize| ms[0] / ms[WIDTHS.iter().position(|&x| x == w).unwrap()];
    let (cold4, cold8) = (speedup(&cold_ms, 4), speedup(&cold_ms, 8));
    let (stall4, stall8) = (speedup(&stall_ms, 4), speedup(&stall_ms, 8));
    println!("parallel/cold/speedup_4w  {cold4:>9.2} x   speedup_8w {cold8:>9.2} x");
    println!("parallel/stall/speedup_4w {stall4:>9.2} x   speedup_8w {stall8:>9.2} x");

    // Rule-overlap gate: machine-independent, always enforced.
    assert!(
        stall4 >= 2.0,
        "4 workers must overlap stalled rules at least 2x (got {stall4:.2}x)"
    );
    assert!(
        stall8 >= 3.0,
        "8 workers must overlap stalled rules at least 3x (got {stall8:.2}x)"
    );
    // Compute-bound gate: only meaningful when the cores exist.
    if cores >= 4 {
        assert!(
            cold4 >= 2.0,
            "4 workers on {cores} cores must run the cold corpus at least 2x faster \
             (got {cold4:.2}x)"
        );
    } else {
        println!("parallel/cold: {cores} core(s) < 4 — cold speedup threshold skipped");
    }
    if cores >= 8 {
        assert!(
            cold8 >= 3.0,
            "8 workers on {cores} cores must run the cold corpus at least 3x faster \
             (got {cold8:.2}x)"
        );
    }

    // One instrumented 8-wide cold run for the task/lock counters.
    let spawned0 = lisa_telemetry::counter_value("sched.tasks_spawned");
    let cache = Arc::new(GateCache::new());
    let report = Gate::new(&registry).config(config()).workers(8).cache(&cache).run(version);
    assert_eq!(render_enforcement(&report), cold_render[0]);
    let spawned = lisa_telemetry::counter_value("sched.tasks_spawned") - spawned0;
    let tiers = cache.tier_stats();
    let lock_acquires: u64 = tiers.iter().map(|(_, s)| s.lock_acquires).sum();
    let lock_contended: u64 = tiers.iter().map(|(_, s)| s.lock_contended).sum();
    println!(
        "parallel/sched: {spawned} tasks spawned; \
         {lock_acquires} cache lock acquires, {lock_contended} contended"
    );

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"bench\":\"parallel_gate_scaling\",\"samples\":{SAMPLES},\"cores\":{cores},\
         \"rules\":{},\"cold_ms\":[",
        registry.len()
    );
    for (i, ms) in cold_ms.iter().enumerate() {
        let _ = write!(json, "{}{ms:.3}", if i > 0 { "," } else { "" });
    }
    json.push_str("],\"stall_ms\":[");
    for (i, ms) in stall_ms.iter().enumerate() {
        let _ = write!(json, "{}{ms:.3}", if i > 0 { "," } else { "" });
    }
    let _ = write!(
        json,
        "],\"widths\":[1,2,4,8],\
         \"cold_speedup_4w\":{cold4:.2},\"cold_speedup_8w\":{cold8:.2},\
         \"stall_speedup_4w\":{stall4:.2},\"stall_speedup_8w\":{stall8:.2},\
         \"sched_tasks_spawned\":{spawned},\
         \"cache_lock_acquires\":{lock_acquires},\"cache_lock_contended\":{lock_contended}"
    );
    json.push('}');
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(out, &json).expect("write BENCH_parallel.json");
    println!("\nwrote {out}");
}
