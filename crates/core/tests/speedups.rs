//! Timed speedup gates: the warm repeat of an unchanged version and cold
//! rule-parallel scaling, each held to a minimum ratio over its baseline.
//!
//! Every test here compares wall clocks, so each is `#[ignore]`d and
//! tier-1 `cargo test` stays free of timing asserts. `scripts/ci.sh`
//! runs them in release, one at a time:
//!
//! ```text
//! cargo test -q --release -p lisa --test speedups -- --ignored --test-threads 1
//! ```
//!
//! Each variant is timed `SAMPLES` times and the minimum is compared,
//! the noise-resistant statistic on a shared machine. The deterministic
//! half of these checks runs in tier-1: report byte-identity across
//! widths in `e2e_parallel`.

use std::sync::Arc;
use std::time::Instant;

use lisa::report::render_enforcement;
use lisa::{Gate, GateCache, PipelineConfig, RuleRegistry, TestSelection};
use lisa_concolic::SystemVersion;
use lisa_corpus::{all_cases, case};
use lisa_oracle::infer_rules;

/// Timed repetitions per variant; the minimum is compared.
const SAMPLES: usize = 5;

/// Every rule the oracle mines from the corpus tickets, in one registry.
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

/// `TestSelection::All`, so concolic runs dominate a cold gate.
fn config() -> PipelineConfig {
    PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() }
}

/// Min-of-`SAMPLES` milliseconds of `run`, and the last run's result.
fn time_min<T>(mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        last = Some(run());
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best_ms, last.expect("SAMPLES > 0"))
}

/// Min-of-`SAMPLES` cold gate at `workers`: a fresh cache every run, so
/// each pays full analysis, concolic and solver cost.
fn time_cold(registry: &RuleRegistry, version: &SystemVersion, workers: usize) -> (f64, String) {
    time_min(|| {
        let cache = Arc::new(GateCache::new());
        let gate = Gate::new(registry).config(config()).workers(workers).cache(&cache);
        render_enforcement(&gate.run(version))
    })
}

#[test]
#[ignore = "timed; scripts/ci.sh runs it in release"]
fn warm_repeat_of_an_unchanged_version_is_at_least_2x_faster() {
    let registry = corpus_registry();
    let zk = case("zk-ephemeral").expect("case");
    let version = &zk.versions.regressed;

    let (cold_ms, cold_render) = time_cold(&registry, version, 1);

    // One shared cache, filled by an untimed first run, then the same
    // gate repeated: the second run of an unchanged version.
    let cache = Arc::new(GateCache::new());
    let gate = Gate::new(&registry).config(config()).workers(1).cache(&cache);
    let _ = gate.run(version);
    let (warm_ms, warm_render) = time_min(|| render_enforcement(&gate.run(version)));

    assert_eq!(cold_render, warm_render, "cached report must render byte-identical");
    let speedup = cold_ms / warm_ms;
    println!("warm repeat: cold {cold_ms:.2} ms, warm {warm_ms:.2} ms, {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "warm repeat of an unchanged version must be at least 2x faster \
         (cold {cold_ms:.2} ms, warm {warm_ms:.2} ms)"
    );
}

#[test]
#[ignore = "timed; scripts/ci.sh runs it in release"]
fn cold_gate_scales_with_the_cores_it_has() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 4 {
        println!("cold scaling: {cores} core(s) < 4, threshold skipped");
        return;
    }
    let registry = corpus_registry();
    let zk = case("zk-ephemeral").expect("case");
    let version = &zk.versions.regressed;
    let (base_ms, _) = time_cold(&registry, version, 1);
    // Compute-bound speedup is capped by the core count, so each width
    // is held to its threshold only where the cores exist.
    for (workers, min_speedup) in [(4, 2.0), (8, 3.0)] {
        if cores < workers {
            continue;
        }
        let (ms, _) = time_cold(&registry, version, workers);
        let speedup = base_ms / ms;
        println!("cold scaling: width {workers} on {cores} cores, {speedup:.2}x");
        assert!(
            speedup >= min_speedup,
            "{workers} workers on {cores} cores must run the cold corpus at least \
             {min_speedup}x faster (width 1 {base_ms:.2} ms, width {workers} {ms:.2} ms)"
        );
    }
}
