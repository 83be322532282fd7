//! The `serve-durable` workload: an open loop over TCP into an
//! in-process `lisa::serve` daemon (one tenant, `workers = nproc`). A
//! seeded schedule fixes when each request is due; at most `nproc`
//! connections are in flight, so a request that cannot be sent on time
//! waits in the generator's backlog, and its latency is timed from its
//! due time.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lisa::{
    gate_durable, run_key, DurableOptions, Gate, GateCache, GateOptions, Json, PipelineConfig,
    RuleRegistry, ServeConfig, ServeStats, TenantSpec, TestSelection,
};
use lisa_analysis::CallGraph;
use lisa_store::repl::ReplBus;
use lisa_store::{FingerprintFile, RunStore};

use crate::fixture::{Fixture, Input};
use crate::rng::Rng;
use crate::stats::{RungTally, Series};
use crate::trace::Tracer;

/// The one tenant every request names.
pub const TENANT: &str = "bench";
/// Share of requests that resubmit an already-answered job id.
pub const RESUBMIT_SHARE: f64 = 0.10;
/// A resubmission names a job scheduled at least this many arrivals
/// earlier, so the original has been sent (and almost always answered).
pub const RESUBMIT_LAG: usize = 8;
/// Client-side bound on one request; a reply slower than this is lost.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A live in-process daemon listening on a fresh local port.
pub struct Daemon {
    pub addr: String,
    handle: Option<JoinHandle<Result<ServeStats, String>>>,
}

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
    Ok(l.local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .port())
}

impl Daemon {
    /// Boot `lisa::serve` with its state under `work`. The port is one
    /// the kernel just handed out for `:0`; if another process takes it
    /// first, boot retries on a new one.
    pub fn boot(work: &Path, workers: usize) -> Result<Daemon, String> {
        let mut last = String::new();
        for _ in 0..5 {
            let addr = format!("127.0.0.1:{}", free_port()?);
            let cfg = ServeConfig {
                socket: work.join("lisa.sock"),
                state_root: work.join("state"),
                workers,
                listen: Some(addr.clone()),
                tenants: vec![TenantSpec {
                    name: TENANT.into(),
                    weight: 1,
                    job_timeout: None,
                }],
                ..ServeConfig::default()
            };
            let handle = std::thread::spawn(move || lisa::serve(&cfg));
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                if handle.is_finished() {
                    last = match handle.join() {
                        Ok(Err(e)) => e,
                        _ => "daemon exited during boot".into(),
                    };
                    break;
                }
                if call(&addr, "{\"op\":\"ping\"}").is_ok_and(|r| r.contains("\"ok\"")) {
                    return Ok(Daemon {
                        addr,
                        handle: Some(handle),
                    });
                }
                if Instant::now() > deadline {
                    return Err(format!("daemon on {addr} did not answer ping"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Err(format!("daemon failed to boot: {last}"))
    }

    /// Drain and join the daemon.
    pub fn shutdown(mut self) -> Result<ServeStats, String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<ServeStats, String> {
        let Some(handle) = self.handle.take() else {
            return Ok(ServeStats::default());
        };
        call(&self.addr, "{\"op\":\"shutdown\"}").map_err(|e| format!("shutdown: {e}"))?;
        handle.join().map_err(|_| "daemon panicked".to_string())?
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Make `close` send a reset instead of a FIN (`SO_LINGER` 0).
///
/// The daemon closes each connection after its reply, so without this
/// every request leaves a TIME_WAIT socket behind for a minute. Runs
/// made back to back then inherit the previous runs' tens of thousands
/// of them, and measured serve latency drifts up run after run; with
/// resets, each run starts from the same kernel state. The reset is sent
/// only after the whole reply has been read.
fn reset_on_close(stream: &TcpStream) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};

    #[repr(C)]
    struct Linger {
        l_onoff: c_int,
        l_linger: c_int,
    }
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    // Linux values of the option's level and name.
    const SOL_SOCKET: c_int = 1;
    const SO_LINGER: c_int = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the fd belongs to `stream`, which outlives the call;
    // `linger` is a live `struct linger` and the length passed is its
    // size, so the kernel reads only memory this frame owns.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast::<c_void>(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// One request over a fresh TCP connection, one reply line back.
pub fn call(addr: &str, line: &str) -> std::io::Result<String> {
    let sock: SocketAddr = addr.parse().map_err(std::io::Error::other)?;
    let mut stream = TcpStream::connect_timeout(&sock, REQUEST_TIMEOUT)?;
    reset_on_close(&stream)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nodelay(true)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

pub fn gate_line(job_id: &str, input: &Input) -> String {
    format!(
        "{{\"v\":1,\"op\":\"gate\",\"tenant\":\"{TENANT}\",\"job_id\":\"{}\",\"system\":\"{}\",\"rules\":\"{}\"}}",
        lisa::json::escape(job_id),
        lisa::json::escape(&input.system),
        lisa::json::escape(&input.rules),
    )
}

/// Check a reply against ground truth: the job settled (`done`), with
/// the expected decision and the matching exit code. Anything else — a
/// lost, malformed, error or shed reply, or a wrong verdict — fails.
pub fn check_reply(reply: &str, input: &Input) -> Result<(), String> {
    let json = Json::parse(reply).map_err(|e| format!("malformed reply {reply:?}: {e}"))?;
    let status = json.str_of("status").unwrap_or("");
    if status != "done" {
        return Err(format!("{}: status {status:?}: {reply}", input.label()));
    }
    let decision = json.str_of("decision").unwrap_or("");
    let exit = json.u64_of("exit");
    let want_exit = if input.expect == lisa::GateDecision::Pass {
        0
    } else {
        1
    };
    if decision != input.expect.to_string() || exit != Some(want_exit) {
        return Err(format!(
            "{}: decision {decision} exit {exit:?}, ground truth {}",
            input.label(),
            input.expect
        ));
    }
    Ok(())
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Due time, seconds after the rung starts.
    pub due: f64,
    /// Index into the fixture's inputs.
    pub input: usize,
    /// Job id number; a resubmission repeats an earlier arrival's.
    pub job: u64,
    pub resubmit: bool,
}

/// The seeded arrival schedule of one rung: `rate` requests per second
/// for `seconds`, inter-arrival gaps uniform in [0.5, 1.5] of the mean
/// period. Job ids start at `first_job`; [`RESUBMIT_SHARE`] of arrivals
/// resubmit an earlier new job (same id, same input).
pub fn schedule(seed: u64, rate: f64, seconds: f64, inputs: usize, first_job: u64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ rate.to_bits());
    let period = 1.0 / rate;
    let mut out: Vec<Arrival> = Vec::new();
    let mut fresh: Vec<usize> = Vec::new();
    let mut due = 0.0;
    let mut next_job = first_job;
    loop {
        due += period * (0.5 + rng.unit());
        if due >= seconds {
            return out;
        }
        let eligible = fresh.len().saturating_sub(RESUBMIT_LAG);
        let arrival = if eligible > 0 && rng.unit() < RESUBMIT_SHARE {
            let orig = &out[fresh[rng.below(eligible)]];
            Arrival {
                due,
                input: orig.input,
                job: orig.job,
                resubmit: true,
            }
        } else {
            fresh.push(out.len());
            next_job += 1;
            Arrival {
                due,
                input: rng.below(inputs),
                job: next_job - 1,
                resubmit: false,
            }
        };
        out.push(arrival);
    }
}

/// What the generator saw for one request, in seconds after the rung
/// started.
#[derive(Debug, Clone)]
pub struct Sent {
    pub send: f64,
    pub reply: f64,
    /// Arrivals due but not yet taken when this one was taken.
    pub backlog: u64,
    pub error: Option<String>,
}

/// Drive one rung's schedule through `connections` senders; returns the
/// rung's start and one [`Sent`] per arrival, in schedule order.
pub fn drive(
    addr: &str,
    fixture: &Fixture,
    arrivals: &[Arrival],
    connections: usize,
) -> (Instant, Vec<Sent>) {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Sent>>> = Mutex::new(vec![None; arrivals.len()]);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..connections.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(a) = arrivals.get(i) else { return };
                let now = start.elapsed().as_secs_f64();
                let due_now = arrivals.partition_point(|x| x.due <= now);
                let backlog = due_now.saturating_sub(i) as u64;
                if a.due > now {
                    std::thread::sleep(Duration::from_secs_f64(a.due - now));
                }
                let input = &fixture.inputs[a.input];
                let send = start.elapsed().as_secs_f64();
                let error = match call(addr, &gate_line(&format!("j{}", a.job), input)) {
                    Ok(reply) => check_reply(&reply, input).err(),
                    Err(e) => Some(format!("{}: lost reply: {e}", input.label())),
                };
                let reply = start.elapsed().as_secs_f64();
                results.lock().expect("results lock")[i] = Some(Sent {
                    send,
                    reply,
                    backlog,
                    error,
                });
            });
        }
    });
    let sent = results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every arrival is driven"))
        .collect();
    (start, sent)
}

/// Fold one rung's results into its tally and latency series.
pub fn tally(rate: f64, seconds: f64, arrivals: &[Arrival], sent: &[Sent]) -> (RungTally, Series) {
    let mut lat = Series::default();
    let mut halves = [(0.0, 0u64); 2];
    let (mut failed, mut backlog_max) = (0, 0);
    for (a, s) in arrivals.iter().zip(sent) {
        lat.push((s.reply - a.due) * 1e3);
        failed += u64::from(s.error.is_some());
        let half = &mut halves[usize::from(a.due >= seconds / 2.0)];
        half.0 += s.backlog as f64;
        half.1 += 1;
        backlog_max = backlog_max.max(s.backlog);
    }
    let mean = |(sum, n): (f64, u64)| if n > 0 { sum / n as f64 } else { 0.0 };
    let rung = RungTally {
        rate,
        attempted: arrivals.len() as u64,
        failed,
        p99_ms: lat.clone().pct(0.99),
        backlog_first_half: mean(halves[0]),
        backlog_second_half: mean(halves[1]),
        backlog_max,
    };
    (rung, lat)
}

/// Fill the tenant cache: one request per input, sequentially.
pub fn warm_up(addr: &str, fixture: &Fixture) -> Result<(), String> {
    for (i, input) in fixture.inputs.iter().enumerate() {
        let reply = call(addr, &gate_line(&format!("warm{i}"), input))
            .map_err(|e| format!("warm-up {}: {e}", input.label()))?;
        check_reply(&reply, input)?;
    }
    Ok(())
}

/// The filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at)
                .then(|| (at.len(), format!("{ty} at {at}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".into(), |(_, t)| t)
}

/// Per-layer tallies from replaying serve jobs in-process.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub jobs: u64,
    pub appends: u64,
    pub frames: u64,
}

/// Replays a daemon job through the public calls its worker makes, in
/// order: `load_system`, `load_rules`, `RunStore::open_replicated`, the
/// dependency-hash inputs, and per unsettled rule `record_started`, the
/// gate, `record_finished`; then `FingerprintFile::save` and
/// `record_run_finished`. Separately it times the composite
/// `gate_durable` on the same job.
pub struct Replayer {
    root: PathBuf,
    bus: Arc<ReplBus>,
    cache: Arc<GateCache>,
    config: PipelineConfig,
}

impl Replayer {
    /// A replayer whose tenant cache is warmed like the daemon's.
    pub fn new(root: PathBuf, fixture: &Fixture) -> Result<Replayer, String> {
        std::fs::create_dir_all(&root).map_err(|e| format!("mkdir {}: {e}", root.display()))?;
        let r = Replayer {
            bus: ReplBus::new(&root),
            root,
            cache: Arc::new(GateCache::new()),
            config: PipelineConfig {
                selection: TestSelection::All,
                ..PipelineConfig::default()
            },
        };
        for input in &fixture.inputs {
            let version = lisa::load_system(&input.system, "test_")?;
            let rules = lisa::load_rules(&input.rules)?;
            let mut registry = RuleRegistry::new();
            for rule in rules {
                registry.register(rule);
            }
            Gate::new(&registry)
                .config(r.config.clone())
                .cache(&r.cache)
                .run(&version);
        }
        Ok(r)
    }

    /// Replay job `job` on `input` under a `replay.job` span; returns the
    /// span's duration in seconds.
    pub fn replay(
        &self,
        job: u64,
        input: &Input,
        tracer: &mut Tracer,
        counts: &mut ReplayCounts,
    ) -> Result<f64, String> {
        let span = tracer.open("replay.job", None, job);
        let p = Some(span);
        let version = tracer.time("lang.load", p, job, || {
            lisa::load_system(&input.system, "test_")
        })?;
        let rules = tracer.time("oracle.rules", p, job, || lisa::load_rules(&input.rules))?;
        let mut registry = RuleRegistry::new();
        for rule in &rules {
            registry.register(rule.clone());
        }
        let key = run_key(&version, &rules);
        let frames_before = self.bus.position().0;
        let dir = self.root.join("jobs").join(format!("j{job}"));
        let mut store = tracer
            .time("store.open", p, job, || {
                RunStore::open_replicated(&dir, &key, None, Some(Arc::clone(&self.bus)))
            })
            .map_err(|e| format!("open {}: {e}", dir.display()))?;
        tracer.time("service.dep_hash", p, job, || {
            std::hint::black_box((
                FingerprintFile::load(&dir),
                CallGraph::build(&version.program),
                lisa_lang::fn_fingerprints(&version.program),
                lisa_lang::fingerprint_decls(&version.program),
            ))
        });
        let gate_opts = GateOptions::default();
        let mut fingerprints = FingerprintFile::default();
        let mut blocked = false;
        for rule in &rules {
            if let Some(done) = store.state.finished_outcome(&rule.id) {
                blocked |= done.has_violation() || done.has_engine_error();
                fingerprints.insert(lisa_store::journal::fnv1a(rule.id.as_bytes()), done.clone());
                continue;
            }
            tracer.time("store.append", p, job, || store.record_started(&rule.id));
            let mut single = RuleRegistry::new();
            single.register(rule.clone());
            let report = tracer.time("sched.gate", p, job, || {
                Gate::new(&single)
                    .config(self.config.clone())
                    .options(GateOptions::default())
                    .cache(&self.cache)
                    .run(&version)
            });
            let outcome = lisa::service::outcome_of(&report.reports[0]);
            blocked |= outcome.has_violation() || outcome.has_engine_error();
            fingerprints.insert(
                lisa_store::journal::fnv1a(rule.id.as_bytes()),
                outcome.clone(),
            );
            tracer.time("store.append", p, job, || store.record_finished(outcome));
            counts.appends += 2;
        }
        tracer
            .time("store.fingerprints_save", p, job, || {
                fingerprints.save(&dir)
            })
            .map_err(|e| format!("save fingerprints: {e}"))?;
        let decision = if blocked { "BLOCK" } else { "PASS" };
        tracer.time("store.append", p, job, || {
            store.record_run_finished(decision)
        });
        counts.appends += 1;
        tracer.close(span);
        counts.jobs += 1;
        counts.frames += self.bus.position().0 - frames_before;
        if decision != input.expect.to_string() {
            return Err(format!(
                "{}: replay decided {decision}, ground truth {}",
                input.label(),
                input.expect
            ));
        }
        let dur = tracer.spans()[span].dur() as f64 / 1e9;

        // The composite call, timed on its own state directory.
        let durable = DurableOptions {
            state_dir: self.root.join("durable").join(format!("j{job}")),
            cache: Some(Arc::clone(&self.cache)),
            repl: Some(Arc::clone(&self.bus)),
            ..DurableOptions::default()
        };
        let report = tracer
            .time("store.durable_run", None, job, || {
                gate_durable(&registry, &version, &self.config, &gate_opts, &durable)
            })
            .map_err(|e| format!("gate_durable: {e}"))?;
        if report.decision != input.expect {
            return Err(format!(
                "{}: gate_durable decided {}",
                input.label(),
                report.decision
            ));
        }
        Ok(dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = schedule(7, 150.0, 4.0, 64, 0);
        assert_eq!(
            a,
            schedule(7, 150.0, 4.0, 64, 0),
            "same seed, same schedule"
        );
        assert_ne!(
            a,
            schedule(8, 150.0, 4.0, 64, 0),
            "another seed, another schedule"
        );
        // The offered rate holds on average; gaps stay within [0.5, 1.5]
        // periods and due times are increasing and inside the window.
        let expect = 150.0 * 4.0;
        assert!(
            (a.len() as f64 - expect).abs() < 0.1 * expect,
            "{} arrivals",
            a.len()
        );
        let period = 1.0 / 150.0;
        let mut prev = 0.0;
        for x in &a {
            let gap = x.due - prev;
            assert!(
                gap >= 0.5 * period - 1e-12 && gap <= 1.5 * period + 1e-12,
                "gap {gap}"
            );
            assert!(x.due < 4.0 && x.input < 64);
            prev = x.due;
        }
    }

    #[test]
    fn resubmissions_repeat_an_earlier_job() {
        let a = schedule(3, 300.0, 4.0, 64, 100);
        let resubmits = a.iter().filter(|x| x.resubmit).count();
        let share = resubmits as f64 / a.len() as f64;
        assert!(
            (share - RESUBMIT_SHARE).abs() < 0.04,
            "resubmit share {share}"
        );
        let mut fresh = Vec::new();
        for (i, x) in a.iter().enumerate() {
            if x.resubmit {
                let orig = a[..i]
                    .iter()
                    .position(|o| !o.resubmit && o.job == x.job)
                    .expect("a resubmission names an earlier new job");
                let later_fresh = fresh.iter().filter(|&&f| f > orig).count();
                assert!(later_fresh >= RESUBMIT_LAG, "resubmitted too soon");
                assert_eq!(a[orig].input, x.input, "same id, same input");
            } else {
                assert_eq!(
                    x.job,
                    100 + fresh.len() as u64,
                    "new ids count up from first_job"
                );
                fresh.push(i);
            }
        }
    }
}
