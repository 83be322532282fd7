//! The `gate-cold` and `gate-warm` closed loops: one caller gates each
//! corpus (case, version) in a seeded order, `load_system` +
//! `load_rules` + `Gate::run`, exactly what `lisa gate` costs minus
//! process start, at [`crate::fixture::GATE_WORKERS`]. Cold gates get a
//! fresh `GateCache`; warm gates reuse the cache the previous gate of
//! the same version left behind.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lisa::{GateCache, GateConfig, GateDecision, Pipeline};
use lisa_analysis::{chain_aliases, execution_tree_filtered, AliasMap, CallGraph};
use lisa_concolic::{run_tests_budgeted, HarnessBudget, SystemVersion};
use lisa_oracle::SemanticRule;

use crate::calib::Clock;
use crate::fixture::{gate, gate_config, Fixture, Input};
use crate::rng::Rng;
use crate::stats::{Histogram, Series};
use crate::trace::Tracer;

/// Warm caches, one per (case, version) label.
pub type WarmCaches = HashMap<String, Arc<GateCache>>;

/// What one closed loop measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per-gate latency as measured, ms.
    pub lat_ms: Histogram,
    /// Per-gate latency at the reference host speed, by input index, ms.
    by_input: Vec<Histogram>,
    /// Correct gates completed in each one-second window, at the
    /// reference host speed.
    per_window: Vec<f64>,
    /// Host-speed samples taken between gates.
    pub clock: Clock,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Resolved scheduler width of the last gate.
    pub width: usize,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    /// Record one gate of input `input` that took `lat_ms` and ended
    /// `done_s` after the loop started, scaled by the host's speed.
    fn record(&mut self, input: usize, lat_ms: f64, done_s: f64, result: Result<usize, String>) {
        self.clock.tick(done_s);
        let scale = self.clock.scale();
        self.lat_ms.push(lat_ms);
        if self.by_input.len() <= input {
            self.by_input.resize_with(input + 1, Histogram::default);
        }
        self.by_input[input].push(lat_ms * scale);
        self.attempted += 1;
        match result {
            Ok(width) => {
                self.width = width;
                let w = done_s as usize;
                if self.per_window.len() <= w {
                    self.per_window.resize(w + 1, 0.0);
                }
                self.per_window[w] += 1.0 / scale;
            }
            Err(what) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(what);
                }
            }
        }
    }

    /// The mean over the gated inputs of each input's `p` percentile
    /// latency at the reference host speed, ms. Input latencies sit in
    /// clusters with gaps between them, so a pooled percentile jumps by a
    /// tenth when a slight shift carries its rank across a gap; each
    /// input's own percentile moves only as much as its gates do.
    pub fn input_mean_pct(&self, p: f64) -> f64 {
        let (sum, n) = self
            .by_input
            .iter()
            .filter(|h| !h.is_empty())
            .fold((0.0, 0), |(sum, n), h| (sum + h.pct(p), n + 1));
        if n > 0 {
            sum / f64::from(n)
        } else {
            0.0
        }
    }

    /// Correct gates completed per second at the reference host speed:
    /// the median over the run's whole one-second windows, so a stall of
    /// a few hundred milliseconds costs one window, not the run; the mean
    /// rate when the run is shorter than a second.
    pub fn per_s(&self) -> f64 {
        let windows = self.wall_s as usize;
        if windows == 0 {
            let done: f64 = self.per_window.iter().sum();
            return if self.wall_s > 0.0 {
                done / self.wall_s
            } else {
                0.0
            };
        }
        let mut rate = Series::default();
        for w in 0..windows {
            rate.push(self.per_window.get(w).copied().unwrap_or(0.0));
        }
        rate.p50()
    }
}

/// The seeded gate order: every input once per round, each round
/// shuffled afresh.
pub struct Order<'a> {
    inputs: &'a [Input],
    idx: Vec<usize>,
    pos: usize,
    rng: Rng,
}

impl<'a> Order<'a> {
    pub fn new(inputs: &'a [Input], seed: u64) -> Order<'a> {
        Order {
            inputs,
            idx: (0..inputs.len()).collect(),
            pos: inputs.len(),
            rng: Rng::new(seed),
        }
    }
}

impl<'a> Iterator for Order<'a> {
    /// An input and its index in the fixture.
    type Item = (usize, &'a Input);

    fn next(&mut self) -> Option<(usize, &'a Input)> {
        if self.inputs.is_empty() {
            return None;
        }
        if self.pos == self.idx.len() {
            self.rng.shuffle(&mut self.idx);
            self.pos = 0;
        }
        self.pos += 1;
        let i = self.idx[self.pos - 1];
        Some((i, &self.inputs[i]))
    }
}

/// Fill one cache per input with an untimed gate.
pub fn fill_warm(fixture: &Fixture) -> Result<WarmCaches, String> {
    let cfg = gate_config();
    let mut caches = HashMap::new();
    for input in &fixture.inputs {
        let version = lisa::load_system(&input.system, &cfg.pipeline.test_prefix)?;
        let rules = lisa::load_rules(&input.rules)?;
        let cache = cfg.gate_cache().expect("gate cache is on by default");
        gate(&cfg, &rules, &version, Some(&cache));
        caches.insert(input.label(), cache);
    }
    Ok(caches)
}

fn cache_of<'c>(warm: Option<&'c WarmCaches>, input: &Input) -> Option<&'c Arc<GateCache>> {
    warm.and_then(|w| w.get(&input.label()))
}

fn check(input: &Input, decision: GateDecision) -> Result<(), String> {
    if decision == input.expect {
        Ok(())
    } else {
        Err(format!(
            "{}: gate said {decision}, ground truth {}",
            input.label(),
            input.expect
        ))
    }
}

/// One untraced gate: load, rules, run, verdict check.
fn gate_once(
    cfg: &GateConfig,
    input: &Input,
    cache: Option<&Arc<GateCache>>,
) -> Result<usize, String> {
    let version = lisa::load_system(&input.system, &cfg.pipeline.test_prefix)?;
    let rules = lisa::load_rules(&input.rules)?;
    let report = gate(cfg, &rules, &version, cache);
    check(input, report.decision)?;
    Ok(report.workers)
}

/// The closed loop, untraced, for `seconds`, gating under `cfg`.
pub fn run(
    cfg: &GateConfig,
    fixture: &Fixture,
    warm: Option<&WarmCaches>,
    seed: u64,
    seconds: f64,
) -> Tally {
    let mut tally = Tally::default();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    for (i, input) in Order::new(&fixture.inputs, seed) {
        if started.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        let result = gate_once(cfg, input, cache_of(warm, input));
        let lat_ms = t.elapsed().as_secs_f64() * 1e3;
        tally.record(i, lat_ms, started.elapsed().as_secs_f64(), result);
    }
    tally.wall_s = started.elapsed().as_secs_f64();
    tally
}

/// Per-layer counts gathered by the traced loop.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub rules: u64,
    pub chains: u64,
    pub tests: u64,
    pub hits: u64,
    pub queries: u64,
    pub incremental: u64,
}

/// The closed loop, traced: each gate is a `request` span over
/// `lang.load`, `oracle.rules` and `sched.gate`. With `replay`, each
/// rule is then checked again outside the request: once as one
/// uncached `pipeline.rule` call, and once layer by layer in the order
/// `Pipeline::check_rule` makes the calls (`analysis.callgraph`,
/// `analysis.tree`, `concolic.run` per test, `smt.query` per arrival)
/// under a `replay.rule` span.
pub fn run_traced(
    fixture: &Fixture,
    warm: Option<&WarmCaches>,
    seed: u64,
    seconds: f64,
    replay: bool,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Tally {
    let cfg = gate_config();
    let mut tally = Tally::default();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    for (rid, (i, input)) in Order::new(&fixture.inputs, seed).enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        let rid = rid as u64;
        let t = Instant::now();
        let req = tracer.open("request", None, rid);
        let result = (|| {
            let version = tracer.time("lang.load", Some(req), rid, || {
                lisa::load_system(&input.system, &cfg.pipeline.test_prefix)
            })?;
            let rules = tracer.time("oracle.rules", Some(req), rid, || {
                lisa::load_rules(&input.rules)
            })?;
            let report = tracer.time("sched.gate", Some(req), rid, || {
                gate(&cfg, &rules, &version, cache_of(warm, input))
            });
            check(input, report.decision)?;
            Ok::<_, String>((version, rules, report.workers))
        })();
        tracer.close(req);
        let lat_ms = t.elapsed().as_secs_f64() * 1e3;
        let done_s = started.elapsed().as_secs_f64();
        let result = result.map(|(version, rules, width)| {
            if replay {
                for rule in &rules {
                    replay_rule(&cfg, &version, rule, rid, tracer, counts);
                }
            }
            width
        });
        tally.record(i, lat_ms, done_s, result);
    }
    tally.wall_s = started.elapsed().as_secs_f64();
    tally
}

fn replay_rule(
    cfg: &GateConfig,
    version: &SystemVersion,
    rule: &SemanticRule,
    rid: u64,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) {
    let pipeline = Pipeline::new(cfg.pipeline.clone());
    std::hint::black_box(tracer.time("pipeline.rule", None, rid, || {
        pipeline.check_rule(version, rule)
    }));

    let config = &cfg.pipeline;
    let program = &version.program;
    let span = tracer.open("replay.rule", None, rid);
    let graph = tracer.time("analysis.callgraph", Some(span), rid, || {
        CallGraph::build(program)
    });
    let prefix = config.test_prefix.as_str();
    let tree = tracer.time("analysis.tree", Some(span), rid, || {
        execution_tree_filtered(&graph, &rule.target, config.tree_limits, &|f| {
            f.starts_with(prefix)
        })
    });
    let mut aliases = AliasMap::default();
    for chain in &tree.chains {
        aliases.merge(&chain_aliases(
            program,
            &graph,
            chain,
            rule.target.callee(),
            &rule.placeholder_roots,
        ));
    }
    for root in &rule.placeholder_roots {
        if program.global(root).is_some() {
            aliases.insert("*", root, root);
        }
    }
    // `lisa gate` selects every test; each runs as its own batch.
    let selected = version.tests.clone();
    let budget = HarnessBudget {
        max_steps_per_test: config.budgets.max_steps_per_test,
        wall: None,
    };
    let mut runs = Vec::new();
    for test in selected.iter().cloned() {
        let outcome = tracer.time("concolic.run", Some(span), rid, || {
            run_tests_budgeted(
                program,
                &[test],
                &rule.target,
                &aliases,
                &config.policy,
                &budget,
            )
        });
        runs.extend(outcome.runs);
    }
    let session = lisa_smt::SolverSession::new(&rule.condition);
    for hit in runs.iter().flat_map(|r| r.hits.iter()) {
        std::hint::black_box(tracer.time("smt.query", Some(span), rid, || {
            session.violates_budgeted(&hit.pi, config.budgets.max_solver_conflicts)
        }));
        counts.hits += 1;
    }
    tracer.close(span);
    let stats = session.stats();
    counts.rules += 1;
    counts.chains += tree.chains.len() as u64;
    counts.tests += selected.len() as u64;
    counts.queries += stats.queries;
    counts.incremental += stats.incremental;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::NOMINAL_US;

    #[test]
    fn input_percentiles_are_averaged_over_inputs() {
        let mut t = Tally {
            clock: Clock::fixed(NOMINAL_US),
            ..Tally::default()
        };
        // Input 0 takes 1 ms, input 2 takes 3 ms; input 1 is never gated.
        for _ in 0..3 {
            t.record(0, 1.0, 0.0, Ok(1));
            t.record(2, 3.0, 0.0, Ok(1));
        }
        let mean = t.input_mean_pct(0.5);
        assert!(
            (mean - 2.0).abs() < 1e-3,
            "the ungated input is left out: {mean}"
        );
        // On a host running at half the reference speed, the same gates
        // read as half as long.
        let mut slow = Tally {
            clock: Clock::fixed(2.0 * NOMINAL_US),
            ..Tally::default()
        };
        slow.record(0, 1.0, 0.0, Ok(1));
        assert!((slow.input_mean_pct(0.5) - 0.5).abs() < 1e-3);
        assert_eq!(Tally::default().input_mean_pct(0.5), 0.0);
    }

    #[test]
    fn throughput_is_the_median_whole_window() {
        let mut t = Tally {
            clock: Clock::fixed(NOMINAL_US),
            ..Tally::default()
        };
        // Windows of 10, 2 (a stall) and 12 gates, then a partial one.
        for (window, n) in [(0.0, 10), (1.0, 2), (2.0, 12), (3.0, 50)] {
            for k in 0..n {
                t.record(0, 1.0, window + f64::from(k) / 100.0, Ok(1));
            }
        }
        t.record(0, 1.0, 0.5, Err("wrong verdict".into()));
        assert_eq!((t.attempted, t.failed), (75, 1));
        t.wall_s = 3.5;
        assert_eq!(
            t.per_s(),
            10.0,
            "failures and the partial window do not count"
        );
        t.wall_s = 5.0;
        assert_eq!(t.per_s(), 10.0, "a window with no gate counts as 0");
        t.wall_s = 0.5;
        assert_eq!(
            t.per_s(),
            74.0 / 0.5,
            "a run under a second reports its mean"
        );
        // At half the reference speed, each gate counts twice.
        let mut slow = Tally {
            clock: Clock::fixed(2.0 * NOMINAL_US),
            wall_s: 1.5,
            ..Tally::default()
        };
        for k in 0..6 {
            slow.record(0, 1.0, f64::from(k) / 10.0, Ok(1));
        }
        assert_eq!(slow.per_s(), 12.0);
    }
}
