//! E10 — robustness: fault-injection sweep over the enforcement gate.
//!
//! Replay the full corpus through the gate while a seeded fault injector
//! disrupts rule checks (panics, solver-budget exhaustion, malformed
//! conditions, stalls) at increasing rates, and
//! measure:
//!
//! - **availability** — fraction of gate runs that returned a decision
//!   (the resilience contract says this must be 100% at every rate),
//! - **blocked (violation)** — regressions still caught by a completed
//!   check,
//! - **blocked (engine)** — fail-closed runs where a fault consumed the
//!   check and the gate blocked rather than guessed,
//! - **warned pass (open)** — the same faults under fail-open: the gate
//!   stays available and flags the gap.
//!
//! No fault is retried: a rule check is a pure function of its inputs,
//! so a faulted check would fail the same way again.

use lisa::report::Table;
use lisa::{
    FailMode, FaultInjector, FaultPlan, Gate, GateDecision, GateOptions,
    PipelineConfig, RuleRegistry, TestSelection,
};
use lisa_corpus::all_cases;
use lisa_experiments::{mined_rule, section};

struct Sweep {
    gates: usize,
    decided: usize,
    violation_blocks: usize,
    engine_blocks: usize,
    open_warned_passes: usize,
}

fn run_sweep(rate: f64, seeds: &[u64]) -> Sweep {
    let config =
        PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() };
    let mut out = Sweep {
        gates: 0,
        decided: 0,
        violation_blocks: 0,
        engine_blocks: 0,
        open_warned_passes: 0,
    };
    for &seed in seeds {
        for (idx, case) in all_cases().into_iter().enumerate() {
            let rule = mined_rule(&case);
            let ids = vec![rule.id.clone()];
            let mut registry = RuleRegistry::new();
            registry.register(rule);
            // Derive a per-case plan seed so each (seed, case) pair rolls
            // its own fault dice.
            let plan_seed = seed.wrapping_mul(1009).wrapping_add(idx as u64);
            for fail_mode in [FailMode::Closed, FailMode::Open] {
                let options = GateOptions {
                    fail_mode,
                    faults: Some(FaultInjector::new(FaultPlan::random(
                        plan_seed, rate, &ids,
                    ))),
                    ..GateOptions::default()
                };
                let report = Gate::new(&registry)
                    .config(config.clone())
                    .workers(2)
                    .options(options)
                    .run(&case.versions.regressed);
                out.gates += 1;
                // The decision is always one of Pass/Block — "decided"
                // counts runs that produced a complete report.
                if report.reports.len() == registry.len() {
                    out.decided += 1;
                }
                let violated = report.reports.iter().any(|r| r.has_violation());
                match fail_mode {
                    FailMode::Closed => {
                        if violated {
                            out.violation_blocks += 1;
                        } else if report.decision == GateDecision::Block
                            && report.engine_errors > 0
                        {
                            out.engine_blocks += 1;
                        }
                    }
                    FailMode::Open => {
                        if report.decision == GateDecision::Pass && report.engine_errors > 0
                        {
                            out.open_warned_passes += 1;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Silence the default panic-hook noise for the *injected* panics (they
/// are caught by the gate; the backtrace spam would drown the tables).
/// Genuine panics — including assertion failures below — still print.
fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with(lisa::faults::FAULT_PANIC_PREFIX) {
            default_hook(info);
        }
    }));
}

fn main() {
    quiet_injected_panics();
    section("E10: fault-injection sweep (3 seeds, fail-closed and fail-open)");
    let seeds = [7u64, 21, 42];
    let mut t = Table::new(&[
        "fault rate",
        "availability",
        "blocked (violation)",
        "blocked (engine, closed)",
        "warned pass (open)",
    ]);
    let mut baseline_violations = None;
    for rate in [0.0, 0.25, 0.5, 1.0] {
        let s = run_sweep(rate, &seeds);
        assert_eq!(
            s.decided, s.gates,
            "resilience contract: every gate run must return a decision"
        );
        if rate == 0.0 {
            assert_eq!(s.engine_blocks, 0, "no faults, no engine errors");
            baseline_violations = Some(s.violation_blocks);
        }
        t.row(&[
            format!("{:.0}%", rate * 100.0),
            format!("{}/{}", s.decided, s.gates),
            format!("{}", s.violation_blocks),
            format!("{}", s.engine_blocks),
            format!("{}", s.open_warned_passes),
        ]);
        if let Some(base) = baseline_violations {
            assert!(
                s.violation_blocks <= base,
                "faults can only lose detections, never invent them"
            );
        }
    }
    println!("{}", t.render());
    println!(
        "shape check: availability is 100% at every fault rate — no injected panic, \
         exhausted budget, malformed condition, or stall ever aborts the gate. As the \
         rate climbs, completed-check detections decay and fail-closed converts the \
         consumed checks into engine blocks (safe), while fail-open converts them into \
         warned passes (available)."
    );
}
