//! `lisa` — command-line front end.
//!
//! ```text
//! lisa check   --system <dir> --rules <file> [--test-prefix test_] [--rag <k>] [--format json]
//!              [--max-solver-conflicts N]
//! lisa gate    --system <dir> --rules <file> [--workers N] [--format json]
//!              [--test-prefix test_] [--rag <k>]
//!              [--fail-mode closed|open] [--deadline-ms N] [--max-solver-conflicts N]
//!              [--fault-seed N] [--fault-rate F] [--state <dir>]
//!              [--cache on|off]
//!              [--trace-out <file>] [--metrics-out <file>]
//! lisa resume  --system <dir> --rules <file> --state <dir> [any gate flag]
//! lisa serve   --socket <path> [--state-root <dir>] [--workers N] [--queue-cap N]
//!              [--job-timeout-ms N]
//!              [--listen <host:port>] [--tenants name[:weight[:timeout_ms]],...]
//!              [--max-conns N]
//! lisa submit  (--socket <path> | --addr <host:port>)
//!              [--op gate|ping|stats|verdict|shutdown] [--system <dir>]
//!              [--rules <file>] [--fail-mode closed|open] [--job-id <id>]
//!              [--tenant <name>]
//! lisa suggest --system <dir> --target <fn>
//! lisa paths   --system <dir> --target <fn>
//! ```
//!
//! Every subcommand also accepts `--verbose` (progress notes on stderr;
//! stdout artifacts stay machine-clean). `--trace-out <file>` writes a
//! Chrome trace-event JSON of the whole run — load it at
//! `ui.perfetto.dev` — and `--metrics-out <file>` writes a counters +
//! latency-histogram snapshot; both work on any subcommand. Any other
//! flag a subcommand does not read is a usage error (exit 2), so a
//! misspelt knob never silently runs with its default.
//!
//! `--deadline-ms N` only decides which rules start: a rule not started
//! within N ms of the gate's start is reported not checked, which
//! fail-closed blocks (exit 2) and fail-open passes with a warning; a
//! rule that started runs to its step and conflict budgets.
//!
//! `--system` points at a directory of `.sir` modules (tests included,
//! discovered by prefix). `--rules` is a text file of authoring-template
//! sentences (one per line, `#` comments):
//!
//! ```text
//! # shield from ZK-1208
//! when calling create_ephemeral_node, require s != null && s.closing == false
//! never call blocking_io while holding a lock
//! ```
//!
//! `gate --state <dir>` journals every settled verdict to `<dir>` so a
//! killed run can be resumed (`lisa resume`) without re-checking rules
//! whose verdicts were already durable. `lisa serve` runs the same
//! durable gate as a daemon behind a unix socket with a supervised
//! worker pool; `lisa submit` is its client. `--listen <host:port>`
//! additionally serves the same protocol over TCP through a nonblocking
//! `poll(2)` readiness loop, with multi-tenant fairness (`--tenants`
//! weights), each tenant's queue bounded by its weight share of
//! `--queue-cap`, and explicit load shedding — saturated submissions
//! get `{"status":"shed","retry_after_ms":...}` immediately instead of
//! a hung or dropped connection. A daemon
//! restarted on the same `--state-root` resumes each job from its
//! journal, so a client that resubmits a job after a crash gets the
//! settled verdicts back without re-checking them.
//!
//! Every gate-relevant flag is parsed once by [`lisa::GateConfig`], the
//! same struct the library's `Gate` builder and the serve daemon use.
//! `--cache on|off` (default on) controls the rule-report memo: each rule
//! check's whole report, keyed by the program, tests, rule, pipeline
//! budgets and configuration. The memo is transparent — every stdout
//! byte, JSON artifact, and journal entry is identical with caching off.
//!
//! Exit status: 0 = pass, 1 = violations found (gate blocks), 2 = a true
//! engine error — usage/load failure, or (under fail-closed) a rule check
//! the gate itself could not complete. Directly usable as a CI step.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use lisa::faults::FAULT_PANIC_PREFIX;
use lisa::report::{render_enforcement, render_rule_report};
use lisa::service::{exit_code_of, request};
use lisa::{
    gate_durable, load_rules, load_system, serve, DurableOptions, Gate, GateConfig, Json, Pipeline,
    RuleRegistry, ServeConfig,
};
use lisa_analysis::{execution_tree_filtered, CallGraph, TargetSpec, TreeLimits};
use lisa_oracle::suggest_conditions;

/// How a successful run (no usage/load error) ended.
enum Outcome {
    /// Gate passed / no violations.
    Clean,
    /// Semantic-rule violations: the change is blocked.
    Violations,
    /// The gate machinery failed on at least one rule under fail-closed:
    /// nobody knows whether the change is safe.
    EngineFailure,
}

impl Outcome {
    /// The outcome an exit code stands for (see `service::exit_code_of`).
    fn of(exit_code: u64) -> Outcome {
        match exit_code {
            0 => Outcome::Clean,
            1 => Outcome::Violations,
            _ => Outcome::EngineFailure,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Outcome::Clean) => ExitCode::SUCCESS,
        Ok(Outcome::Violations) => ExitCode::from(1),
        Ok(Outcome::EngineFailure) => ExitCode::from(2),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  lisa check   --system <dir> --rules <file> [--test-prefix test_] [--rag <k>] [--format json]
               [--max-solver-conflicts N]
  lisa gate    --system <dir> --rules <file> [--workers N|auto] [--format json]
               [--test-prefix test_] [--rag <k>]
               [--fail-mode closed|open] [--deadline-ms N] [--max-solver-conflicts N]
               [--fault-seed N] [--fault-rate F] [--state <dir>]
               [--cache on|off]
               [--trace-out <file>] [--metrics-out <file>]
  lisa resume  --system <dir> --rules <file> --state <dir> [any gate flag]
  lisa serve   --socket <path> [--state-root <dir>] [--workers N|auto] [--queue-cap N]
               [--job-timeout-ms N]
               [--listen <host:port>] [--tenants name[:weight[:timeout_ms]],...]
               [--max-conns N]
  lisa submit  (--socket <path> | --addr <host:port>)
               [--op gate|ping|stats|verdict|shutdown] [--system <dir>]
               [--rules <file>] [--fail-mode closed|open] [--job-id <id>]
               [--tenant <name>]
  lisa suggest --system <dir> --target <fn>
  lisa paths   --system <dir> --target <fn>
--deadline-ms N: a rule not started within N ms of the gate's start is reported
  not checked (fail-closed blocks with exit 2, fail-open passes with a warning);
  a rule that started runs to its budgets
flags accepted everywhere:
  --verbose                progress notes on stderr (stdout stays machine-clean)
  --trace-out <file>       write a Chrome trace (Perfetto-loadable) of the run
  --metrics-out <file>     write a counters + latency-histogram JSON snapshot";

fn run(args: &[String]) -> Result<Outcome, String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let flags = parse_flags(cmd, &args[1..])?;
    // Telemetry is configured before any work starts: --trace-out needs
    // full spans, --metrics-out alone needs only counters/histograms.
    // Telemetry never feeds a verdict, so enabling it cannot change any
    // artifact written to stdout.
    if flags.contains_key("trace-out") {
        lisa_telemetry::init(lisa_telemetry::TelemetryConfig::Full);
    } else if flags.contains_key("metrics-out") {
        lisa_telemetry::init(lisa_telemetry::TelemetryConfig::MetricsOnly);
    }
    if flags.contains_key("verbose") {
        lisa_telemetry::set_verbose(true);
    }
    let result = match cmd.as_str() {
        "check" => cmd_check(&flags, false),
        "gate" => cmd_check(&flags, true),
        "resume" => cmd_resume(&flags),
        "serve" => cmd_serve(&flags),
        "submit" => cmd_submit(&flags),
        "suggest" => cmd_suggest(&flags),
        "paths" => cmd_paths(&flags),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    // Export on the way out even when the gate blocks — a blocked run's
    // trace is exactly the one worth looking at.
    if let Some(path) = flags.get("trace-out") {
        std::fs::write(path, lisa_telemetry::chrome_trace_json())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = flags.get("metrics-out") {
        std::fs::write(path, lisa_telemetry::metrics_json())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    result
}

/// Flags every subcommand accepts.
const GLOBAL_FLAGS: &[&str] = &["verbose", "trace-out", "metrics-out"];

/// The flags `cmd` reads, [`GLOBAL_FLAGS`] included; `None` for an
/// unknown subcommand.
fn command_flags(cmd: &str) -> Option<Vec<&'static str>> {
    let (own, config): (&[&str], &[&str]) = match cmd {
        "check" => (&["system", "rules", "format"], GateConfig::PIPELINE_FLAGS),
        "gate" | "resume" => (&["system", "rules", "format", "state"], GateConfig::FLAGS),
        "serve" => (
            &[
                "socket", "state-root", "workers", "queue-cap", "job-timeout-ms", "listen",
                "tenants", "max-conns",
            ],
            &[],
        ),
        "submit" => (
            &["socket", "addr", "op", "system", "rules", "fail-mode", "job-id", "tenant", "chaos"],
            &[],
        ),
        "suggest" | "paths" => (&["system", "target"], &[]),
        _ => return None,
    };
    Some([GLOBAL_FLAGS, own, config].concat())
}

/// `--name value` pairs (and the valueless `--verbose`). A flag `cmd`
/// does not read is an error, reported in argument order.
fn parse_flags(cmd: &str, args: &[String]) -> Result<HashMap<String, String>, String> {
    let accepted = command_flags(cmd);
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, found {flag:?}"));
        };
        if accepted.as_ref().is_some_and(|a| !a.contains(&name)) {
            return Err(format!("unknown flag --{name} for `{cmd}`"));
        }
        // The one valueless flag; everything else is a --name value pair.
        if name == "verbose" {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{name} needs a value"));
        };
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn parse_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .get(name)
        .map(|v| v.parse::<T>().map_err(|_| format!("--{name} {v}: not a number")))
        .transpose()
}

fn cmd_check(flags: &HashMap<String, String>, gate: bool) -> Result<Outcome, String> {
    // Every gate-relevant flag is parsed in one place; check mode and the
    // serve daemon consume the same struct.
    let cfg = GateConfig::from_args(flags)?;
    let version = load_system(required(flags, "system")?, &cfg.pipeline.test_prefix)?;
    let rules = load_rules(required(flags, "rules")?)?;
    let config = cfg.pipeline.clone();
    let json = matches!(flags.get("format").map(String::as_str), Some("json"));
    lisa_telemetry::note("load", || {
        format!(
            "system `{}`: {} function(s), {} test(s), {} rule(s)",
            version.label,
            version.program.functions().count(),
            version.tests.len(),
            rules.len()
        )
    });
    if gate {
        let ids: Vec<String> = rules.iter().map(|r| r.id.clone()).collect();
        let options = cfg.gate_options(&ids);
        let mut registry = RuleRegistry::new();
        for r in rules {
            registry.register(r);
        }
        // `--state <dir>`: journal the run so a crash can be resumed
        // without re-checking already-settled rules.
        if let Some(state) = flags.get("state") {
            let durable = DurableOptions {
                state_dir: PathBuf::from(state),
                workers: cfg.workers,
                cache: cfg.gate_cache(),
                ..DurableOptions::default()
            };
            let report = gate_durable(&registry, &version, &config, &options, &durable)
                .map_err(|e| format!("durable state {state}: {e}"))?;
            if json {
                println!(
                    "{{\"decision\":\"{}\",\"reused\":{},\"fresh\":{},\"durable\":{}}}",
                    report.decision, report.reused, report.fresh, report.durable
                );
            } else {
                print!("{}", report.render());
            }
            return Ok(Outcome::of(exit_code_of(report.decision, report.has_violation()).into()));
        }
        let mut gate = Gate::new(&registry).config(config).workers(cfg.workers).options(options);
        if let Some(cache) = cfg.gate_cache() {
            gate = gate.cache(&cache);
        }
        let report = gate.run(&version);
        // Resolved width goes to the verbose stderr channel, never into
        // the report: gate output is byte-identical at any worker count.
        lisa_telemetry::note("gate", || {
            format!("scheduler width {} (--workers {})", report.workers, cfg.workers)
        });
        if json {
            println!("{}", lisa::json::enforcement_json(&report));
        } else {
            print!("{}", render_enforcement(&report));
        }
        Ok(Outcome::of(exit_code_of(report.decision, !report.violated_rules().is_empty()).into()))
    } else {
        let pipeline = Pipeline::new(config);
        let mut clean = true;
        let mut json_reports = Vec::new();
        for rule in &rules {
            let report = pipeline.check_rule(&version, rule);
            if json {
                json_reports.push(lisa::json::rule_report_json(&report));
            } else {
                print!("{}", render_rule_report(&report));
            }
            clean &= !report.has_violation();
        }
        if json {
            println!("[{}]", json_reports.join(","));
        }
        Ok(if clean { Outcome::Clean } else { Outcome::Violations })
    }
}

/// `lisa resume` — continue a journaled gate run. Identical to
/// `gate --state <dir>`: the journal itself knows which verdicts are
/// already settled, so "start" and "resume" are the same operation.
fn cmd_resume(flags: &HashMap<String, String>) -> Result<Outcome, String> {
    required(flags, "state")?;
    cmd_check(flags, true)
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<Outcome, String> {
    let socket = PathBuf::from(required(flags, "socket")?);
    let state_root = flags
        .get("state-root")
        .map(PathBuf::from)
        .unwrap_or_else(|| socket.with_extension("state"));
    let config = ServeConfig {
        socket,
        state_root,
        workers: match flags.get("workers").map(String::as_str) {
            None => 2,
            Some("auto") => 0,
            Some(v) => v
                .parse()
                .map_err(|_| format!("--workers {v}: expected a number or `auto`"))?,
        },
        queue_cap: parse_num(flags, "queue-cap")?.unwrap_or(64),
        job_timeout: Duration::from_millis(
            parse_num::<u64>(flags, "job-timeout-ms")?.unwrap_or(30_000),
        ),
        listen: flags.get("listen").cloned(),
        tenants: match flags.get("tenants") {
            Some(spec) => lisa::parse_tenant_specs(spec)?,
            None => Vec::new(),
        },
        max_conns: parse_num(flags, "max-conns")?.unwrap_or(4096),
    };
    // Chaos panics (and enforce-side injected panics) are expected,
    // supervised events in a daemon — keep them off stderr.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let quiet = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.starts_with(FAULT_PANIC_PREFIX));
        if !quiet {
            default_hook(info);
        }
    }));
    lisa_telemetry::note("serve", || format!("listening on {}", config.socket.display()));
    let stats = serve(&config)?;
    lisa_telemetry::note("serve", || {
        format!(
            "drained — {} job(s) done, {} dead-lettered, {} worker(s) respawned",
            stats.jobs_done,
            stats.dead_letters,
            stats.respawned_workers,
        )
    });
    Ok(Outcome::Clean)
}

fn cmd_submit(flags: &HashMap<String, String>) -> Result<Outcome, String> {
    // One of the two transports: --socket (unix) or --addr (TCP, for a
    // daemon started with --listen). Same protocol, same reply bytes.
    let op = flags.get("op").map(String::as_str).unwrap_or("gate");
    let line = match op {
        "ping" | "stats" | "shutdown" => format!("{{\"op\":\"{op}\"}}"),
        "verdict" => {
            let id = required(flags, "job-id")?;
            format!(
                "{{\"v\":{},\"op\":\"verdict\",\"job_id\":\"{}\"}}",
                lisa::service::PROTOCOL_VERSION,
                lisa::json::escape(id),
            )
        }
        "gate" => {
            let system = required(flags, "system")?;
            let rules = required(flags, "rules")?;
            // The protocol is versioned; the daemon rejects numbers it
            // does not speak with a structured bad-request reply.
            let mut line = format!(
                "{{\"v\":{},\"op\":\"gate\",\"system\":\"{}\",\"rules\":\"{}\"",
                lisa::service::PROTOCOL_VERSION,
                lisa::json::escape(system),
                lisa::json::escape(rules),
            );
            for (flag, field) in [
                ("fail-mode", "fail_mode"),
                ("job-id", "job_id"),
                ("tenant", "tenant"),
                ("chaos", "chaos"),
            ] {
                if let Some(v) = flags.get(flag) {
                    line.push_str(&format!(",\"{field}\":\"{}\"", lisa::json::escape(v)));
                }
            }
            line.push('}');
            line
        }
        other => return Err(format!("unknown --op {other:?}")),
    };
    let reply = match flags.get("addr") {
        Some(addr) => lisa::request_tcp(addr, &line)
            .map_err(|e| format!("request to tcp {addr}: {e}"))?,
        None => {
            let socket = PathBuf::from(required(flags, "socket")?);
            request(&socket, &line)
                .map_err(|e| format!("request to {}: {e}", socket.display()))?
        }
    };
    println!("{reply}");
    let parsed = Json::parse(&reply).map_err(|e| format!("bad reply: {e}"))?;
    Ok(Outcome::of(parsed.u64_of("exit").unwrap_or(0)))
}

fn cmd_suggest(flags: &HashMap<String, String>) -> Result<Outcome, String> {
    let version = load_system(required(flags, "system")?, "test_")?;
    let target = required(flags, "target")?;
    let suggestions = suggest_conditions(&version.program, target);
    if suggestions.is_empty() {
        println!("no guarded paths to `{target}` found — nothing to suggest");
        return Ok(Outcome::Clean);
    }
    println!("suggested conditions for `when calling {target}, require ...`:");
    for s in suggestions {
        println!("  [{} path(s) already enforce] {}", s.support, s.condition_src);
    }
    Ok(Outcome::Clean)
}

fn cmd_paths(flags: &HashMap<String, String>) -> Result<Outcome, String> {
    let version = load_system(required(flags, "system")?, "test_")?;
    let target = required(flags, "target")?;
    let graph = CallGraph::build(&version.program);
    let spec = TargetSpec::Call { callee: target.to_string() };
    let tree = execution_tree_filtered(&graph, &spec, TreeLimits::default(), &|f| {
        f.starts_with("test_")
    });
    println!("{} chain(s) reach {spec}:", tree.chains.len());
    for chain in &tree.chains {
        println!("  {}", chain.render(&graph));
    }
    if tree.truncated {
        println!("  ... (truncated)");
    }
    Ok(Outcome::Clean)
}
