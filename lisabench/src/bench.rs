//! One benchmark run: parse the arguments, set up, measure one workload
//! (untraced) or every layer (traced), and collect the metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::calib;
use crate::fixture::{self, gate_config, gate_config_with, Fixture, GATE_WORKERS};
use crate::gates::{self, LayerCounts, Tally, WarmCaches};
use crate::serve::{self, Daemon, ReplayCounts, Replayer};
use crate::stats::{self, RungTally, Series};
use crate::trace::Tracer;

/// The serve rate ladder: (offered rate in requests/s, share of the
/// run). The daemon sustained 700 to 1300 requests/s on the 2-core
/// reference machine when its host was quiet and under 120 when it was
/// busy, so the nominal rung runs well below the quiet figure and the
/// top rung is past capacity even then, where the backlog must grow.
/// The shares leave time for the top rung's backlog to drain. Every
/// fresh job leaves a state directory that is deleted at exit, and on a
/// filesystem mounted with `discard` those deletions slow the next
/// minute's fsyncs, so the rungs are kept short to bound what one run
/// leaves to the next.
pub const LADDER: [(f64, f64); 3] = [(120.0, 0.5), (300.0, 0.15), (2700.0, 0.02)];
/// The rung whose latency is reported as `serve_ms_p50` / `serve_ms_p99`.
pub const NOMINAL: usize = 0;
/// A rung is sustained only while its p99 (from due time) stays under
/// this limit.
pub const P99_LIMIT_MS: f64 = 100.0;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;
/// Where a run keeps its inputs and daemon state (removed on exit), and
/// where a traced run writes its spans, relative to the working
/// directory.
pub const WORK_ROOT: &str = ".lisabench-work";
pub const OUT_ROOT: &str = ".lisabench-out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GateCold,
    GateWarm,
    ServeDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GateCold,
        Workload::GateWarm,
        Workload::ServeDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GateCold => "gate-cold",
            Workload::GateWarm => "gate-warm",
            Workload::ServeDurable => "serve-durable",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or(format!(
                "unknown workload {s:?} (gate-cold, gate-warm, serve-durable)"
            ))
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag} {value}: not a number");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("{flag} {value}: not a number"))?
            }
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's result: the report lines and the one-line JSON verdict.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    fn count(&mut self, attempted: u64, failed: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors.iter().cloned());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The run's scratch directory under [`WORK_ROOT`], removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: Workload) -> Result<WorkDir, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty root behind.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Everything a workload needs before it is measured.
struct Setup {
    fixture: Fixture,
    warm: Option<WarmCaches>,
    daemon: Option<Daemon>,
    replayer: Option<Replayer>,
}

fn set_up(dir: &Path, warm: bool, daemon: bool, replayer: bool) -> Result<Setup, String> {
    let fixture = fixture::write_and_check(&dir.join("corpus"))?;
    let warm = if warm {
        Some(gates::fill_warm(&fixture)?)
    } else {
        None
    };
    let daemon = if daemon {
        let d = Daemon::boot(dir, cores())?;
        serve::warm_up(&d.addr, &fixture)?;
        Some(d)
    } else {
        None
    };
    let replayer = if replayer {
        Some(Replayer::new(dir.join("replay"), &fixture)?)
    } else {
        None
    };
    Ok(Setup {
        fixture,
        warm,
        daemon,
        replayer,
    })
}

/// Set up [`SETUP_REPEATS`] times, each in its own directory; keep the
/// last and return the median set-up time in seconds at the reference
/// host speed (see [`calib`]).
fn set_up_repeatedly(work: &Path, warm: bool, daemon: bool) -> Result<(Setup, f64), String> {
    let mut times = Series::default();
    let mut last = None;
    for k in 0..SETUP_REPEATS {
        if let Some(Setup {
            daemon: Some(d), ..
        }) = last.take()
        {
            d.shutdown()?;
        }
        let dir = work.join(format!("setup{k}"));
        flush_fs(work);
        let before = calib::scale_now(5);
        let t = Instant::now();
        last = Some(set_up(&dir, warm, daemon, false)?);
        let secs = t.elapsed().as_secs_f64();
        let after = calib::scale_now(5);
        times.push(secs * (before + after) / 2.0);
    }
    Ok((last.expect("at least one set-up"), times.p50()))
}

/// Write back the dirty pages of the filesystem holding `dir`
/// (`syncfs(2)`), so a set-up's writes do not queue behind the previous
/// set-up's writeback: with it, writing the corpus took 0.02 to 0.06 s
/// on the reference machine; without it, 0.03 to 0.16 s. Best effort: a
/// failure costs only steadiness.
fn flush_fs(dir: &Path) {
    use std::os::fd::AsRawFd;
    use std::os::raw::c_int;
    extern "C" {
        fn syncfs(fd: c_int) -> c_int;
    }
    if let Ok(f) = std::fs::File::open(dir) {
        // SAFETY: the descriptor belongs to `f`, which is open for the
        // whole call; `syncfs` only reads it.
        unsafe { syncfs(f.as_raw_fd()) };
    }
}

pub fn cores() -> usize {
    lisa::resolve_workers(0)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::new(args.workload)?;
    let mut out = Outcome::default();
    out.note(format!(
        "lisabench {} seed={} seconds={} trace={} cores={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores()
    ));
    if args.trace {
        traced(args, &work.0, &mut out)?;
    } else {
        untraced(args, &work.0, &mut out)?;
    }
    Ok(out)
}

fn gate_lines(out: &mut Outcome, name: &str, t: &Tally) {
    out.note(format!(
        "{name}: gate_ms_p50={:.4} ms gate_ms_p95={:.4} ms (mean over inputs of each one's percentile) gates_per_s={:.1} 1/s (median of {} one-second windows), at the reference host speed; host calibration sample {:.1} us (nominal {}); as measured: pooled p50={:.4} p95={:.4} p99={:.4} ms (n={}) width={} (--workers {GATE_WORKERS})",
        t.input_mean_pct(0.50),
        t.input_mean_pct(0.95),
        t.per_s(),
        t.wall_s as usize,
        t.clock.median_us(),
        calib::NOMINAL_US,
        t.lat_ms.p50(),
        t.lat_ms.pct(0.95),
        t.lat_ms.pct(0.99),
        t.lat_ms.len(),
        t.width,
    ));
}

fn rung_line(r: &RungTally, lat: &mut Series, late: &mut Series) -> String {
    format!(
        "  rung {:>5.0} rps: n={} p50={:.3} ms p99={:.3} ms late_p99={:.3} ms backlog mean {:.2}/{:.2} max {} failed={} sustained={}",
        r.rate,
        r.attempted,
        lat.p50(),
        r.p99_ms,
        late.pct(0.99),
        r.backlog_first_half,
        r.backlog_second_half,
        r.backlog_max,
        r.failed,
        r.sustained(P99_LIMIT_MS),
    )
}

/// Run one rung of the ladder against `daemon`.
fn run_rung(
    daemon: &Daemon,
    fixture: &Fixture,
    seed: u64,
    rate: f64,
    seconds: f64,
    first_job: u64,
) -> (Vec<serve::Arrival>, Instant, Vec<serve::Sent>) {
    let arrivals = serve::schedule(seed, rate, seconds, fixture.inputs.len(), first_job);
    let (start, sent) = serve::drive(&daemon.addr, fixture, &arrivals, cores());
    (arrivals, start, sent)
}

fn lateness(arrivals: &[serve::Arrival], sent: &[serve::Sent]) -> Series {
    let mut late = Series::default();
    for (a, s) in arrivals.iter().zip(sent) {
        late.push((s.send - a.due).max(0.0) * 1e3);
    }
    late
}

fn untraced(args: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let w = args.workload;
    let (setup, setup_s) =
        set_up_repeatedly(work, w == Workload::GateWarm, w == Workload::ServeDurable)?;
    let (p50, p95, throughput) = match w {
        Workload::GateCold | Workload::GateWarm => {
            let t = gates::run(
                &gate_config(),
                &setup.fixture,
                setup.warm.as_ref(),
                args.seed,
                args.seconds,
            );
            gate_lines(out, w.name(), &t);
            out.count(t.attempted, t.failed, &t.errors);
            (t.input_mean_pct(0.50), t.input_mean_pct(0.95), t.per_s())
        }
        Workload::ServeDurable => {
            let daemon = setup.daemon.as_ref().expect("serve set-up boots a daemon");
            out.note(format!(
                "serve-durable: workers={} connections={} tenant={} resubmit_share={} p99_limit_ms={P99_LIMIT_MS} state fs: {}",
                cores(),
                cores(),
                serve::TENANT,
                serve::RESUBMIT_SHARE,
                serve::fs_type(work)
            ));
            let mut rungs = Vec::new();
            let mut nominal = (0.0, 0.0, 0.0);
            let mut first_job = 0;
            for (i, &(rate, share)) in LADDER.iter().enumerate() {
                let secs = args.seconds * share;
                let (arrivals, _, sent) =
                    run_rung(daemon, &setup.fixture, args.seed, rate, secs, first_job);
                first_job += arrivals.len() as u64;
                let (rung, mut lat) = serve::tally(rate, secs, &arrivals, &sent);
                let errors: Vec<String> = sent.iter().filter_map(|s| s.error.clone()).collect();
                out.count(rung.attempted, rung.failed, &errors);
                out.note(rung_line(&rung, &mut lat, &mut lateness(&arrivals, &sent)));
                if i == NOMINAL {
                    nominal = (lat.p50(), lat.pct(0.95), lat.pct(0.99));
                }
                rungs.push(rung);
            }
            let max_rps = stats::max_sustained_rate(&rungs, P99_LIMIT_MS);
            out.note(format!(
                "serve-durable: serve_ms_p50={:.4} ms serve_ms_p95={:.4} ms serve_ms_p99={:.4} ms at {} rps, serve_max_rps={max_rps} 1/s",
                nominal.0, nominal.1, nominal.2, LADDER[NOMINAL].0
            ));
            (nominal.0, nominal.1, max_rps)
        }
    };
    if let Some(d) = setup.daemon {
        d.shutdown()?;
    }
    let rss = stats::peak_rss_mb();
    out.note(format!(
        "{}: failed_ratio={} ({}/{}) peak_rss_mb={rss:.2} MB setup_s={setup_s:.4} s (median of {SETUP_REPEATS})",
        w.name(),
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out.metric("latency_ms_p50", p50, "ms");
    out.metric("latency_ms_p95", p95, "ms");
    out.metric("throughput_per_s", throughput, "1/s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("setup_s", setup_s, "s");
    Ok(())
}

/// Ratio with a zero base reading as 0.
fn ratio(num: f64, base: f64) -> f64 {
    if base > 0.0 {
        num / base
    } else {
        0.0
    }
}

fn spans_path(pass: &str) -> PathBuf {
    Path::new(OUT_ROOT).join(format!("spans-{pass}.ndjson"))
}

fn p50_of(by_name: &std::collections::BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    let mut s = Series::default();
    for v in by_name.get(name).into_iter().flatten() {
        s.push(*v);
    }
    s.p50()
}

/// Durations of every span named `name`, summed per request id.
fn per_request(tracer: &Tracer, names: &[&str]) -> std::collections::HashMap<u64, f64> {
    let mut out = std::collections::HashMap::new();
    for s in tracer.spans().iter().filter(|s| names.contains(&s.name)) {
        *out.entry(s.request).or_insert(0.0) += s.dur() as f64 / 1e3;
    }
    out
}

/// Share of the `request` spans' time that no child span covers.
fn unattributed(tracer: &Tracer) -> f64 {
    let (mut own, mut total) = (0.0, 0.0);
    for (s, self_ns) in tracer.spans().iter().zip(tracer.self_times()) {
        if s.name == "request" {
            own += self_ns as f64;
            total += s.dur() as f64;
        }
    }
    ratio(own, total)
}

/// One traced pass: its spans, its workload's end-to-end p50 with
/// tracing on, and its share of that time no layer span covers.
struct Pass {
    tracer: Tracer,
    traced_p50: f64,
    unattributed: f64,
}

/// gate-cold: composite spans per gate, then each rule replayed layer
/// by layer; analysis, concolic, SMT, pipeline and scheduler metrics.
fn cold_pass(fixture: &Fixture, seed: u64, secs: f64, out: &mut Outcome) -> Pass {
    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let tally = gates::run_traced(fixture, None, seed, secs, true, &mut tracer, &mut counts);
    out.count(tally.attempted, tally.failed, &tally.errors);
    gate_lines(out, "traced gate-cold", &tally);
    // The workload gates at GATE_WORKERS; the scheduler's fan-out is read
    // from a short untraced loop at `--workers auto`.
    let stolen0 = lisa_telemetry::counter_value("sched.tasks_stolen");
    let spawned0 = lisa_telemetry::counter_value("sched.tasks_spawned");
    let fanout = gates::run(&gate_config_with("auto"), fixture, None, seed, 0.05 * secs);
    let stolen = lisa_telemetry::counter_value("sched.tasks_stolen") - stolen0;
    let spawned = lisa_telemetry::counter_value("sched.tasks_spawned") - spawned0;
    out.count(fanout.attempted, fanout.failed, &fanout.errors);

    // Pipeline self time: the uncached rule minus the replayed analysis,
    // concolic and SMT time of the same rule; scheduler self time: the
    // gate minus its rule.
    let rule_us = per_request(&tracer, &["pipeline.rule"]);
    let layers_us = per_request(
        &tracer,
        &[
            "analysis.callgraph",
            "analysis.tree",
            "concolic.run",
            "smt.query",
        ],
    );
    let gate_us = per_request(&tracer, &["sched.gate"]);
    let (mut pipeline_self, mut gate_self) = (Series::default(), Series::default());
    for (rid, rule) in &rule_us {
        pipeline_self.push(rule - layers_us.get(rid).copied().unwrap_or(0.0));
        if let Some(g) = gate_us.get(rid) {
            gate_self.push(g - rule);
        }
    }
    let own = tracer.self_us_by_name();
    let rules = counts.rules as f64;
    out.note(format!(
        "trace gate-cold: {} rules replayed (base of the *_per_rule counts), steals {stolen}/{spawned} over {} gates at width {}",
        counts.rules, fanout.attempted, fanout.width
    ));
    out.metric(
        "analysis.callgraph_us_p50",
        p50_of(&own, "analysis.callgraph"),
        "us",
    );
    out.metric("analysis.tree_us_p50", p50_of(&own, "analysis.tree"), "us");
    out.metric(
        "analysis.chains_per_rule",
        ratio(counts.chains as f64, rules),
        "count",
    );
    out.metric("concolic.run_us_p50", p50_of(&own, "concolic.run"), "us");
    out.metric(
        "concolic.tests_per_rule",
        ratio(counts.tests as f64, rules),
        "count",
    );
    out.metric(
        "concolic.hits_per_rule",
        ratio(counts.hits as f64, rules),
        "count",
    );
    out.metric("smt.query_us_p50", p50_of(&own, "smt.query"), "us");
    out.metric(
        "smt.queries_per_rule",
        ratio(counts.queries as f64, rules),
        "count",
    );
    let incremental = ratio(counts.incremental as f64, counts.queries as f64);
    out.metric("smt.incremental_ratio", incremental, "ratio");
    out.metric("pipeline.rule_us_p50", p50_of(&own, "pipeline.rule"), "us");
    out.metric("pipeline.self_us_p50", pipeline_self.p50(), "us");
    out.metric("sched.gate_self_us_p50", gate_self.p50(), "us");
    out.metric(
        "sched.steal_ratio",
        ratio(stolen as f64, spawned as f64),
        "ratio",
    );
    let unattributed = unattributed(&tracer);
    Pass {
        tracer,
        traced_p50: tally.input_mean_pct(0.50),
        unattributed,
    }
}

/// gate-warm: composite spans per gate plus the cache tiers' counters;
/// load, rules and cache metrics.
fn warm_pass(
    fixture: &Fixture,
    warm: &WarmCaches,
    seed: u64,
    secs: f64,
    out: &mut Outcome,
) -> Pass {
    let mut tracer = Tracer::new();
    let before: Vec<_> = warm.values().map(|c| c.tier_stats()).collect();
    let tally = gates::run_traced(
        fixture,
        Some(warm),
        seed,
        secs,
        false,
        &mut tracer,
        &mut LayerCounts::default(),
    );
    out.count(tally.attempted, tally.failed, &tally.errors);
    gate_lines(out, "traced gate-warm", &tally);
    // Per tier (analysis, trace, smt): hits and lookups over the pass.
    let mut tiers = [(0u64, 0u64); 3];
    let (mut contended, mut acquires) = (0u64, 0u64);
    for (cache, before) in warm.values().zip(&before) {
        for (i, ((_, now), (_, then))) in cache.tier_stats().iter().zip(before).enumerate() {
            tiers[i].0 += now.hits - then.hits;
            tiers[i].1 += (now.hits + now.misses) - (then.hits + then.misses);
            contended += now.lock_contended - then.lock_contended;
            acquires += now.lock_acquires - then.lock_acquires;
        }
    }
    out.note(format!(
        "trace gate-warm: cache hits/lookups analysis {}/{} trace {}/{} smt {}/{}, lock contended/acquired {contended}/{acquires}",
        tiers[0].0, tiers[0].1, tiers[1].0, tiers[1].1, tiers[2].0, tiers[2].1
    ));
    let own = tracer.self_us_by_name();
    out.metric("lang.load_us_p50", p50_of(&own, "lang.load"), "us");
    out.metric("oracle.rules_us_p50", p50_of(&own, "oracle.rules"), "us");
    for (name, (hits, lookups)) in [
        "cache.analysis.hit_ratio",
        "cache.trace.hit_ratio",
        "cache.smt.hit_ratio",
    ]
    .into_iter()
    .zip(tiers)
    {
        out.metric(name, ratio(hits as f64, lookups as f64), "ratio");
    }
    out.metric(
        "cache.lock_contended_ratio",
        ratio(contended as f64, acquires as f64),
        "ratio",
    );
    let unattributed = unattributed(&tracer);
    Pass {
        tracer,
        traced_p50: tally.input_mean_pct(0.50),
        unattributed,
    }
}

/// serve-durable: the nominal rung with client spans, then each job
/// replayed in-process through its public calls (for as long as
/// `replay_secs` allows); store, replication, fabric and load-generator
/// metrics.
fn serve_pass(
    daemon: &Daemon,
    replayer: &Replayer,
    fixture: &Fixture,
    seed: u64,
    secs: f64,
    replay_secs: f64,
    out: &mut Outcome,
) -> Pass {
    let mut tracer = Tracer::new();
    let (rate, _) = LADDER[NOMINAL];
    let (arrivals, start, sent) = run_rung(daemon, fixture, seed, rate, secs, 1 << 41);
    let (rung, mut lat) = serve::tally(rate, secs, &arrivals, &sent);
    let errors: Vec<String> = sent.iter().filter_map(|s| s.error.clone()).collect();
    out.count(rung.attempted, rung.failed, &errors);
    let mut late = lateness(&arrivals, &sent);
    out.note(rung_line(&rung, &mut lat, &mut late));
    let base = tracer.at(start);
    let ns = |s: f64| base + (s * 1e9) as u64;
    for (a, s) in arrivals.iter().zip(&sent) {
        let req = tracer.record("request", None, a.job, ns(a.due), ns(s.reply));
        tracer.record(
            "loadgen.late",
            Some(req),
            a.job,
            ns(a.due),
            ns(s.send.max(a.due)),
        );
    }
    let mut counts = ReplayCounts::default();
    let mut fabric = Series::default();
    let (mut e2e, mut covered) = (0.0, 0.0);
    let replay_started = Instant::now();
    for (a, s) in arrivals.iter().zip(&sent) {
        if replay_started.elapsed().as_secs_f64() >= replay_secs {
            break;
        }
        match replayer.replay(a.job, &fixture.inputs[a.input], &mut tracer, &mut counts) {
            Ok(dur) => {
                fabric.push(((s.reply - s.send) - dur) * 1e6);
                e2e += s.reply - a.due;
                covered += (s.send - a.due).max(0.0) + dur;
            }
            Err(e) => out.count(1, 1, &[e]),
        }
    }
    out.note(format!(
        "trace serve-durable: {} jobs replayed",
        counts.jobs
    ));
    let own = tracer.self_us_by_name();
    let jobs = counts.jobs as f64;
    out.metric("store.open_us_p50", p50_of(&own, "store.open"), "us");
    out.metric("store.append_us_p50", p50_of(&own, "store.append"), "us");
    out.metric(
        "store.appends_per_job",
        ratio(counts.appends as f64, jobs),
        "count",
    );
    out.metric(
        "store.fingerprints_save_us_p50",
        p50_of(&own, "store.fingerprints_save"),
        "us",
    );
    out.metric(
        "store.durable_run_us_p50",
        p50_of(&own, "store.durable_run"),
        "us",
    );
    out.metric(
        "repl.frames_per_job",
        ratio(counts.frames as f64, jobs),
        "count",
    );
    out.metric("serve.fabric_us_p50", fabric.p50(), "us");
    out.metric("serve.fabric_us_p99", fabric.pct(0.99), "us");
    out.metric("loadgen.late_ms_p99", late.pct(0.99), "ms");
    out.metric("loadgen.backlog_max", rung.backlog_max as f64, "count");
    // No span inside the daemon covers the fabric, so it is the
    // unattributed part of a served request.
    Pass {
        tracer,
        traced_p50: lat.p50(),
        unattributed: ratio((e2e - covered).max(0.0), e2e),
    }
}

/// The traced run: every per-layer metric, each measured on the
/// workload its layer is mapped to, plus the selected workload's
/// unattributed share and tracing overhead.
fn traced(args: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let (seed, secs) = (args.seed, args.seconds);
    let setup = set_up(&work.join("setup"), true, true, true)?;
    let fixture = &setup.fixture;
    let warm = setup
        .warm
        .as_ref()
        .expect("traced set-up fills warm caches");
    let daemon = setup.daemon.as_ref().expect("traced set-up boots a daemon");
    let replayer = setup
        .replayer
        .as_ref()
        .expect("traced set-up builds a replayer");

    // Untraced baseline of the selected workload, with telemetry as its
    // untraced run has it: off for the gates, metrics on for the daemon.
    let untraced_p50 = match args.workload {
        Workload::GateCold | Workload::GateWarm => {
            lisa_telemetry::init(lisa_telemetry::TelemetryConfig::Off);
            let cache = (args.workload == Workload::GateWarm).then_some(warm);
            gates::run(&gate_config(), fixture, cache, seed, 0.2 * secs).input_mean_pct(0.50)
        }
        Workload::ServeDurable => {
            let (rate, _) = LADDER[NOMINAL];
            let (arrivals, _, sent) = run_rung(daemon, fixture, seed, rate, 0.2 * secs, 1 << 40);
            serve::tally(rate, 0.2 * secs, &arrivals, &sent).1.p50()
        }
    };
    // Tracing turns the scheduler's counters on.
    lisa_telemetry::init(lisa_telemetry::TelemetryConfig::MetricsOnly);
    let passes = [
        ("gate-cold", cold_pass(fixture, seed, 0.2 * secs, out)),
        (
            "gate-warm",
            warm_pass(fixture, warm, seed, 0.15 * secs, out),
        ),
        (
            "serve-durable",
            serve_pass(
                daemon,
                replayer,
                fixture,
                seed,
                0.25 * secs,
                0.15 * secs,
                out,
            ),
        ),
    ];
    let (_, selected) = passes
        .iter()
        .find(|(name, _)| *name == args.workload.name())
        .expect("every workload has a pass");
    out.note(format!(
        "trace {}: p50 traced {:.4} ms / untraced {untraced_p50:.4} ms; spans in {OUT_ROOT}/",
        args.workload.name(),
        selected.traced_p50
    ));
    out.metric("trace.unattributed_share", selected.unattributed, "ratio");
    out.metric(
        "trace.overhead_ratio",
        ratio(selected.traced_p50, untraced_p50),
        "ratio",
    );
    for (name, pass) in &passes {
        pass.tracer
            .write_ndjson(&spans_path(name))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    Ok(())
}
