//! End-to-end crash-recovery tests: the journaled gate killed at every
//! record boundary (with and without seeded disk faults) recovers to
//! byte-identical verdicts without re-executing settled checks, and the
//! `lisa serve` daemon survives panicking/stalling workers while keeping
//! the CLI exit-code contract (0 = pass, 1 = violations, 2 = engine
//! errors / dead-letter). A daemon SIGKILLed and restarted on the same
//! state root answers a resubmitted job from its journal.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lisa::{
    gate_durable, load_rules, load_system, DiskFaultInjector, DurableGateReport, DurableOptions,
    GateConfig, GateOptions, PipelineConfig, RuleRegistry, TestSelection,
};
use lisa_analysis::TargetSpec;
use lisa_concolic::{discover_tests, SystemVersion};
use lisa_lang::Program;
use lisa_oracle::SemanticRule;
use lisa_store::{scan, GateEvent};

// ---------------------------------------------------------------------------
// Library-level recovery fixture
// ---------------------------------------------------------------------------

fn version() -> SystemVersion {
    let src = "struct Session { id: int, closing: bool }\n\
         global sessions: map<int, Session>;\n\
         fn create_ephemeral(s: Session, path: str) {}\n\
         fn prep_create(sid: int, path: str) {\n\
             let session: Session = sessions.get(sid);\n\
             if (session == null) { return; }\n\
             create_ephemeral(session, path);\n\
         }\n\
         fn test_create() {\n\
             sessions.put(1, new Session { id: 1 });\n\
             prep_create(1, \"/a\");\n\
         }";
    let p = Program::parse_single("zk", src).expect("fixture parses");
    let tests = discover_tests(&p, "test_");
    SystemVersion::new("zk", p, tests)
}

fn registry() -> RuleRegistry {
    let mut reg = RuleRegistry::new();
    for (id, cond) in [
        ("ZK-1208-r0", "s != null && s.closing == false"),
        ("ZK-NULL-r0", "s != null"),
    ] {
        reg.register(
            SemanticRule::new(
                id,
                id,
                TargetSpec::Call { callee: "create_ephemeral".into() },
                cond,
            )
            .expect("fixture rule"),
        );
    }
    reg
}

/// A fresh directory per call. Tests run in parallel and some share a
/// helper (and so a tag), so the pid alone would let one test's cleanup
/// delete another's journal.
fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!("lisa-e2e-rec-{tag}-{}-{seq}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn run_durable(dir: &std::path::Path, faults: Option<Arc<DiskFaultInjector>>) -> DurableGateReport {
    let durable = DurableOptions {
        state_dir: dir.to_path_buf(),
        disk_faults: faults.map(|f| f as Arc<dyn lisa_store::IoFaults>),
        ..DurableOptions::default()
    };
    gate_durable(
        &registry(),
        &version(),
        &PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() },
        &GateOptions::default(),
        &durable,
    )
    .expect("durable gate run")
}

fn finished_count(bytes: &[u8]) -> usize {
    scan(bytes)
        .records
        .iter()
        .filter(|r| matches!(GateEvent::decode(r), Ok(GateEvent::RuleCheckFinished { .. })))
        .count()
}

/// Baseline verdict artifact + the full journal it produced.
fn baseline() -> (String, Vec<u8>) {
    let dir = tmpdir("baseline");
    let report = run_durable(&dir, None);
    assert!(report.durable);
    let journal = std::fs::read(dir.join("wal.log")).expect("journal");
    let _ = std::fs::remove_dir_all(&dir);
    (report.verdicts_text(), journal)
}

#[test]
fn kill_at_every_record_boundary_recovers_byte_identical_verdicts() {
    let (v0, journal) = baseline();
    let rules = registry().len();
    let scanned = scan(&journal);
    assert!(scanned.corrupt.is_empty());
    for (i, kp) in
        std::iter::once(0u64).chain(scanned.boundaries.iter().copied()).enumerate()
    {
        let dir = tmpdir(&format!("kill-{i}"));
        std::fs::write(dir.join("wal.log"), &journal[..kp as usize]).expect("truncate");
        let settled = finished_count(&journal[..kp as usize]);
        let report = run_durable(&dir, None);
        assert_eq!(report.verdicts_text(), v0, "kill point {i}: verdicts must be identical");
        // Settled verdicts are reused, never re-executed: the resumed
        // journal ends with exactly one finished record per rule.
        assert_eq!(report.reused, settled, "kill point {i}");
        assert_eq!(report.fresh, rules - settled, "kill point {i}");
        let final_journal = std::fs::read(dir.join("wal.log")).expect("final journal");
        assert_eq!(finished_count(&final_journal), rules, "kill point {i}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn seeded_disk_faults_may_force_rechecks_but_never_change_verdicts() {
    let (v0, journal) = baseline();
    let rules = registry().len();
    let scanned = scan(&journal);
    let kill_points: Vec<u64> =
        std::iter::once(0u64).chain(scanned.boundaries.iter().copied()).collect();
    let mut fired = 0usize;
    for seed in 0..20u64 {
        let kp = kill_points[(seed as usize) % kill_points.len()] as usize;
        let settled = finished_count(&journal[..kp]);
        let dir = tmpdir(&format!("fault-{seed}"));
        std::fs::write(dir.join("wal.log"), &journal[..kp]).expect("truncate");
        let injector = Arc::new(DiskFaultInjector::random(seed));
        let report = run_durable(&dir, Some(injector.clone()));
        assert_eq!(report.verdicts_text(), v0, "fault plan {seed}: verdict bytes changed");
        assert_eq!(report.reused + report.fresh, rules, "fault plan {seed}");
        assert!(report.reused <= settled, "fault plan {seed}: verdict invented from thin air");
        if !injector.fired().is_empty() {
            fired += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(fired > 0, "the sweep must exercise at least one disk fault");
}

#[test]
fn corrupted_journal_tail_only_costs_rechecks() {
    let (v0, journal) = baseline();
    // Flip one byte in the middle of the journal: that record is
    // quarantined on open; the verdict it held is re-checked.
    let mut damaged = journal.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0xff;
    let dir = tmpdir("corrupt");
    std::fs::write(dir.join("wal.log"), &damaged).expect("write damaged journal");
    let report = run_durable(&dir, None);
    assert_eq!(report.verdicts_text(), v0, "corruption must never change verdicts");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// CLI: durable gate, resume, and the serve daemon
// ---------------------------------------------------------------------------

const SYSTEM: &str = r#"
struct Order { id: int, paid: bool, cancelled: bool }
global orders: map<int, Order>;
global shipped: map<int, int>;

fn ship_order(o: Order, courier: int) { shipped.put(o.id, courier); }

fn checkout_ship(oid: int, courier: int) {
    let o: Order = orders.get(oid);
    if (o == null || o.paid == false || o.cancelled) { return; }
    ship_order(o, courier);
}

fn admin_reship(oid: int, courier: int) {
    let ord: Order = orders.get(oid);
    if (ord == null || ord.paid == false) { return; }
    ship_order(ord, courier);
}

fn seed(id: int, paid: bool, cancelled: bool) {
    orders.put(id, new Order { id: id, paid: paid, cancelled: cancelled });
}

fn test_checkout() { seed(1, true, false); checkout_ship(1, 7); assert(shipped.contains(1), "ok"); }
fn test_reship() { seed(2, true, false); admin_reship(2, 9); assert(shipped.contains(2), "ok"); }
"#;

/// `admin_reship` misses the `cancelled` guard: violated.
const STRICT_RULES: &str =
    "when calling ship_order, require o != null && o.paid == true && o.cancelled == false\n";
/// Both call sites guard null + paid: passes.
const LAX_RULES: &str = "when calling ship_order, require o != null && o.paid == true\n";

struct CliFixture {
    dir: PathBuf,
}

impl CliFixture {
    fn new(tag: &str) -> CliFixture {
        let dir = std::env::temp_dir().join(format!("lisa-rec-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sys")).expect("mkdir");
        std::fs::write(dir.join("sys/orders.sir"), SYSTEM).expect("sir");
        std::fs::write(dir.join("strict.txt"), STRICT_RULES).expect("rules");
        std::fs::write(dir.join("lax.txt"), LAX_RULES).expect("rules");
        CliFixture { dir }
    }

    fn run(&self, args: &[&str]) -> (i32, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_lisa"))
            .args(args)
            .output()
            .expect("spawn lisa");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        (out.status.code().unwrap_or(-1), text)
    }

    fn path(&self, rel: &str) -> String {
        self.dir.join(rel).to_string_lossy().into_owned()
    }
}

impl Drop for CliFixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn cli_gate_with_state_resumes_after_torn_tail() {
    let fx = CliFixture::new("state");
    let state = fx.path("state");
    let (code, out) = fx.run(&[
        "gate",
        "--system",
        &fx.path("sys"),
        "--rules",
        &fx.path("strict.txt"),
        "--state",
        &state,
    ]);
    assert_eq!(code, 1, "violations block: {out}");
    assert!(out.contains("BLOCK"), "{out}");

    // Tear the journal tail (simulated crash mid-final-write), then
    // resume: the settled verdict is reused and the decision identical.
    let wal = fx.dir.join("state/wal.log");
    let bytes = std::fs::read(&wal).expect("journal");
    std::fs::write(&wal, &bytes[..bytes.len() - 5]).expect("tear tail");
    let (code, out) = fx.run(&[
        "resume",
        "--system",
        &fx.path("sys"),
        "--rules",
        &fx.path("strict.txt"),
        "--state",
        &state,
    ]);
    assert_eq!(code, 1, "resumed decision identical: {out}");
    assert!(out.contains("1 reused from journal"), "{out}");
    assert!(out.contains("0 fresh"), "{out}");
}

struct Daemon {
    child: Child,
    socket: String,
}

impl Daemon {
    fn start(fx: &CliFixture) -> Daemon {
        let socket = fx.path("lisa.sock");
        let child = Command::new(env!("CARGO_BIN_EXE_lisa"))
            .args([
                "serve",
                "--socket",
                &socket,
                "--state-root",
                &fx.path("served"),
                "--workers",
                "2",
                "--job-timeout-ms",
                "1500",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lisa serve");
        // The socket file appears at bind(2), a moment before listen(2):
        // wait until a connection is accepted, not until the file exists.
        let deadline = Instant::now() + Duration::from_secs(10);
        while std::os::unix::net::UnixStream::connect(&socket).is_err() {
            assert!(Instant::now() < deadline, "daemon never listened on its socket");
            std::thread::sleep(Duration::from_millis(20));
        }
        Daemon { child, socket }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn serve_daemon_keeps_exit_contract_and_survives_chaos() {
    let fx = CliFixture::new("serve");
    let mut daemon = Daemon::start(&fx);
    let submit = |extra: &[&str]| {
        let mut args = vec!["submit", "--socket", daemon.socket.as_str()];
        args.extend_from_slice(extra);
        fx.run(&args)
    };

    let (code, out) = submit(&["--op", "ping"]);
    assert_eq!(code, 0, "{out}");

    // Clean job → pass, exit 0.
    let sys = fx.path("sys");
    let lax = fx.path("lax.txt");
    let strict = fx.path("strict.txt");
    let (code, out) = submit(&["--system", &sys, "--rules", &lax, "--job-id", "clean"]);
    assert_eq!(code, 0, "clean gate must pass: {out}");
    assert!(out.contains("\"decision\":\"PASS\""), "{out}");

    // Violating job → blocked, exit 1.
    let (code, out) = submit(&["--system", &sys, "--rules", &strict, "--job-id", "viol"]);
    assert_eq!(code, 1, "violations must block: {out}");
    assert!(out.contains("\"decision\":\"BLOCK\""), "{out}");

    // A worker that panics: the supervisor respawns it and dead-letters
    // the job at once with exit 2 (the engine-error half of the
    // contract), naming the cause.
    let (code, out) = submit(&[
        "--system", &sys, "--rules", &strict, "--job-id", "flaky", "--chaos", "panic",
    ]);
    assert_eq!(code, 2, "panicked job must dead-letter: {out}");
    assert!(out.contains("dead-letter") && out.contains("worker panicked"), "{out}");

    // The client is the retry layer: resubmitting the same id without
    // the drill settles with the undisturbed job's verdict.
    let (code, out) = submit(&["--system", &sys, "--rules", &strict, "--job-id", "flaky"]);
    assert_eq!(code, 1, "resubmitted job settles normally: {out}");
    assert!(out.contains("\"decision\":\"BLOCK\""), "{out}");

    // A drill the daemon does not know is refused, never run as a
    // normal job.
    let (code, out) = submit(&[
        "--system", &sys, "--rules", &strict, "--job-id", "odd", "--chaos", "panic-once",
    ]);
    assert_eq!(code, 2, "unknown drill must be refused: {out}");
    assert!(out.contains("bad-request"), "{out}");
    assert!(!fx.dir.join("served/odd").exists(), "a refused drill ran a job");

    // Graceful drain: shutdown reply, then the daemon exits cleanly.
    let (code, out) = submit(&["--op", "shutdown"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("draining"), "{out}");
    let status = daemon.child.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(0), "drained daemon exits 0");

    // Durable state survived under the daemon's state root: the clean
    // job's journal holds its settled verdict.
    let clean_wal = fx.dir.join("served/clean/wal.log");
    assert!(clean_wal.exists(), "per-job durable state directory");
    let bytes = std::fs::read(&clean_wal).expect("job journal");
    assert_eq!(finished_count(&bytes), 1, "one settled verdict for the one rule");
}

#[test]
fn serve_daemon_recovers_stalled_workers() {
    let fx = CliFixture::new("stall");
    let mut daemon = Daemon::start(&fx);
    let sys = fx.path("sys");
    let strict = fx.path("strict.txt");

    // The job stalls past the 1.5s job timeout; the supervisor abandons
    // the worker and dead-letters the job after that one run.
    let started = Instant::now();
    let (code, out) = fx.run(&[
        "submit", "--socket", &daemon.socket, "--system", &sys, "--rules", &strict,
        "--job-id", "slow", "--chaos", "stall",
    ]);
    let waited = started.elapsed();
    assert_eq!(code, 2, "stalled job dead-letters: {out}");
    assert!(out.contains("stalled"), "{out}");
    let twice = Duration::from_millis(2 * 1500);
    assert!(waited < twice, "dead-letter took {waited:?}, past 2x the job timeout");
    let (code, out) = fx.run(&["submit", "--socket", &daemon.socket, "--op", "stats"]);
    assert_eq!(code, 0, "{out}");
    let line = out.lines().find(|l| l.starts_with('{')).expect("stats line");
    let stats = lisa::Json::parse(line.trim()).expect("stats is valid JSON");
    assert_eq!(stats.u64_of("respawned_workers"), Some(1), "one run, one respawn: {out}");
    assert_eq!(stats.u64_of("dead_letters"), Some(1), "{out}");

    // The daemon is still healthy afterwards.
    let (code, out) =
        fx.run(&["submit", "--socket", &daemon.socket, "--system", &sys, "--rules", &strict]);
    assert_eq!(code, 1, "daemon still gates after stall recovery: {out}");

    let (code, _) = fx.run(&["submit", "--socket", &daemon.socket, "--op", "shutdown"]);
    assert_eq!(code, 0);
    let status = daemon.child.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn serve_replies_structured_error_to_malformed_request() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let fx = CliFixture::new("badjson");
    let mut daemon = Daemon::start(&fx);

    // Raw garbage on the wire: the daemon must answer with a structured
    // error object — never drop the connection, never die.
    let mut stream = UnixStream::connect(&daemon.socket).expect("connect");
    stream.write_all(b"this is not json\n").expect("write");
    stream.flush().expect("flush");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read reply");
    let parsed = lisa::Json::parse(reply.trim()).expect("reply is valid JSON");
    assert_eq!(parsed.str_of("status"), Some("bad-request"), "{reply}");
    assert!(parsed.str_of("error").is_some(), "{reply}");
    assert_eq!(parsed.u64_of("exit"), Some(2), "{reply}");

    // Truncated JSON, an unknown op, a gate without its required fields,
    // and a protocol version the daemon does not speak (future number or
    // non-numeric) get the same structured treatment.
    for bad in [
        "{\"op\":\"gate\",",
        "{\"op\":\"no-such-op\"}",
        "{\"op\":\"gate\"}",
        "{\"v\":2,\"op\":\"ping\"}",
        "{\"v\":\"one\",\"op\":\"ping\"}",
    ] {
        let mut stream = UnixStream::connect(&daemon.socket).expect("connect");
        stream.write_all(bad.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("newline");
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).expect("read reply");
        let parsed = lisa::Json::parse(reply.trim())
            .unwrap_or_else(|e| panic!("{bad}: reply not JSON ({e}): {reply}"));
        assert_eq!(parsed.str_of("status"), Some("bad-request"), "{bad} -> {reply}");
    }

    // An explicit `"v":1` and a version-less request (v1 implied, the
    // pre-versioning wire format) are both accepted.
    for good in ["{\"v\":1,\"op\":\"ping\"}", "{\"op\":\"ping\"}"] {
        let mut stream = UnixStream::connect(&daemon.socket).expect("connect");
        stream.write_all(good.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("newline");
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).expect("read reply");
        let parsed = lisa::Json::parse(reply.trim())
            .unwrap_or_else(|e| panic!("{good}: reply not JSON ({e}): {reply}"));
        assert_eq!(parsed.str_of("status"), Some("ok"), "{good} -> {reply}");
    }

    // The daemon is unharmed: ping still answers, drain still clean.
    let (code, out) = fx.run(&["submit", "--socket", &daemon.socket, "--op", "ping"]);
    assert_eq!(code, 0, "{out}");
    let (code, _) = fx.run(&["submit", "--socket", &daemon.socket, "--op", "shutdown"]);
    assert_eq!(code, 0);
    let status = daemon.child.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn serve_stats_reports_queue_workers_and_counters() {
    let fx = CliFixture::new("stats");
    let mut daemon = Daemon::start(&fx);
    let sys = fx.path("sys");
    let lax = fx.path("lax.txt");

    // Settle one clean job so cumulative counters are nonzero.
    let (code, out) = fx.run(&[
        "submit", "--socket", &daemon.socket, "--system", &sys, "--rules", &lax,
        "--job-id", "one",
    ]);
    assert_eq!(code, 0, "{out}");

    let (code, out) = fx.run(&["submit", "--socket", &daemon.socket, "--op", "stats"]);
    assert_eq!(code, 0, "{out}");
    let line = out.lines().find(|l| l.trim_start().starts_with('{')).expect("stats line");
    let parsed = lisa::Json::parse(line.trim()).expect("stats is valid JSON");
    assert_eq!(parsed.u64_of("jobs_done"), Some(1), "{out}");
    assert_eq!(parsed.u64_of("queued"), Some(0), "{out}");

    // Worker states: the whole pool is visible and idle after the job.
    let Some(lisa::Json::Arr(workers)) = parsed.get("workers") else {
        panic!("workers array missing: {out}")
    };
    assert_eq!(workers.len(), 2, "{out}");
    assert!(workers.iter().all(|w| w.str_of("state") == Some("idle")), "{out}");

    // Cumulative per-stage counters flowed up from the pipeline layers.
    let counters = parsed.get("counters").expect("counters object");
    assert_eq!(counters.u64_of("serve.jobs_done"), Some(1), "{out}");
    assert!(counters.u64_of("pipeline.rules_checked").unwrap_or(0) >= 1, "{out}");
    assert!(counters.u64_of("smt.queries").unwrap_or(0) >= 1, "{out}");
    assert!(counters.u64_of("store.appends").unwrap_or(0) >= 1, "{out}");

    // Timing summaries carry per-job latency.
    let timings = parsed.get("timings").expect("timings object");
    let job_us = timings.get("serve.job_us").expect("serve.job_us summary");
    assert!(job_us.u64_of("count").unwrap_or(0) >= 1, "{out}");
    // The queue wait and the SIR load are timed too.
    for layer in ["serve.queue_wait_us", "lang.load_us"] {
        let summary = timings.get(layer).unwrap_or_else(|| panic!("{layer} summary: {out}"));
        assert!(summary.u64_of("count").unwrap_or(0) >= 1, "{out}");
    }

    let (code, _) = fx.run(&["submit", "--socket", &daemon.socket, "--op", "shutdown"]);
    assert_eq!(code, 0);
    let status = daemon.child.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn serve_metrics_snapshots_survive_restart() {
    let fx = CliFixture::new("metrics-persist");
    let sys = fx.path("sys");
    let lax = fx.path("lax.txt");

    let mut daemon = Daemon::start(&fx);
    let (code, out) = fx.run(&[
        "submit", "--socket", &daemon.socket, "--system", &sys, "--rules", &lax,
        "--job-id", "m1",
    ]);
    assert_eq!(code, 0, "{out}");
    let (code, _) = fx.run(&["submit", "--socket", &daemon.socket, "--op", "shutdown"]);
    assert_eq!(code, 0);
    let status = daemon.child.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(0), "first daemon drains cleanly");

    // Restart over the same state root: the journaled metrics snapshot is
    // restored, so cumulative counters survive even though this process
    // has settled no jobs yet.
    let mut daemon = Daemon::start(&fx);
    let (code, out) = fx.run(&["submit", "--socket", &daemon.socket, "--op", "stats"]);
    assert_eq!(code, 0, "{out}");
    let line = out.lines().find(|l| l.trim_start().starts_with('{')).expect("stats line");
    let parsed = lisa::Json::parse(line.trim()).expect("stats is valid JSON");
    assert_eq!(parsed.u64_of("jobs_done"), Some(0), "fresh process, no jobs yet: {out}");
    let counters = parsed.get("counters").expect("counters object");
    assert!(
        counters.u64_of("serve.jobs_done").unwrap_or(0) >= 1,
        "cumulative counters restored from the metrics journal: {out}"
    );

    let (code, _) = fx.run(&["submit", "--socket", &daemon.socket, "--op", "shutdown"]);
    assert_eq!(code, 0);
    let status = daemon.child.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(0));
}

#[test]
fn sigkilled_daemon_restarted_on_its_state_root_reuses_every_verdict() {
    let fx = CliFixture::new("restart");
    let sys = fx.path("sys");
    let rules = fx.path("both.txt");
    std::fs::write(&rules, format!("{STRICT_RULES}{LAX_RULES}")).expect("rules");
    let verdict_fnv = |socket: &str| {
        let (code, out) =
            fx.run(&["submit", "--socket", socket, "--op", "verdict", "--job-id", "fo1"]);
        assert_eq!(code, 0, "{out}");
        let line = out.lines().find(|l| l.trim_start().starts_with('{')).expect("verdict line");
        let parsed = lisa::Json::parse(line.trim()).expect("verdict is valid JSON");
        assert_eq!(parsed.u64_of("finished"), Some(2), "{out}");
        parsed.str_of("verdicts_fnv").expect("verdicts_fnv").to_string()
    };

    let mut daemon = Daemon::start(&fx);
    let (code, first) = fx.run(&[
        "submit", "--socket", &daemon.socket, "--system", &sys, "--rules", &rules,
        "--job-id", "fo1",
    ]);
    assert_eq!(code, 1, "the strict rule blocks: {first}");
    assert!(first.contains("\"fresh\":2"), "{first}");
    let settled = verdict_fnv(&daemon.socket);

    // SIGKILL: no drain, no cleanup; the socket file is left behind.
    daemon.child.kill().expect("kill");
    daemon.child.wait().expect("reap");
    let _ = std::fs::remove_file(&daemon.socket);

    // The same state root on a new process: the acknowledged verdicts
    // are all there, and resubmitting the job reuses every one of them.
    let mut daemon = Daemon::start(&fx);
    assert_eq!(verdict_fnv(&daemon.socket), settled, "journal survived the kill");
    let (code, again) = fx.run(&[
        "submit", "--socket", &daemon.socket, "--system", &sys, "--rules", &rules,
        "--job-id", "fo1",
    ]);
    assert_eq!(code, 1, "same decision after restart: {again}");
    assert!(again.contains("\"decision\":\"BLOCK\""), "{again}");
    assert!(again.contains("\"reused\":2"), "{again}");
    assert!(again.contains("\"fresh\":0"), "{again}");
    assert_eq!(verdict_fnv(&daemon.socket), settled, "same verdicts after the resubmit");

    let (code, _) = fx.run(&["submit", "--socket", &daemon.socket, "--op", "shutdown"]);
    assert_eq!(code, 0);
    let status = daemon.child.wait().expect("daemon exit");
    assert_eq!(status.code(), Some(0));
}

/// A journal written by commit dd47206, whose gate ran a one-test sanity
/// pass on rules dequeued past the deadline and journaled the outcome
/// with `degraded=1`. Today's gate decodes it as an unchecked outcome:
/// it replays the journal (no archive), reuses nothing and checks the
/// rule, appending the new outcome after the old records.
#[test]
fn a_degraded_outcome_journaled_by_an_earlier_release_is_checked_again() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/compat/dd47206/deadline");
    let old_wal = std::fs::read(fixture.join("state/wal.log")).expect("fixture journal");
    let old: Vec<GateEvent> =
        scan(&old_wal).records.iter().map(|r| GateEvent::decode(r).expect("decodes")).collect();
    let unchecked: Vec<bool> = old
        .iter()
        .filter_map(|e| match e {
            GateEvent::RuleCheckFinished { outcome } => Some(outcome.unchecked),
            _ => None,
        })
        .collect();
    assert_eq!(unchecked, [true], "{old:?}");

    let dir = tmpdir("compat-degraded");
    std::fs::copy(fixture.join("state/wal.log"), dir.join("wal.log")).expect("copy journal");
    let cfg = GateConfig::from_args(&Default::default()).expect("default gate flags");
    let version =
        load_system(fixture.join("system").to_str().expect("utf-8"), &cfg.pipeline.test_prefix)
            .expect("fixture system");
    let mut registry = RuleRegistry::new();
    for r in load_rules(fixture.join("rules.txt").to_str().expect("utf-8")).expect("rules") {
        registry.register(r);
    }
    let durable = DurableOptions { state_dir: dir.clone(), ..DurableOptions::default() };
    let report =
        gate_durable(&registry, &version, &cfg.pipeline, &GateOptions::default(), &durable)
            .expect("run");
    assert_eq!(report.recovered_records, old.len(), "the old journal is replayed");
    assert_eq!((report.reused, report.fresh), (0, 1));
    assert!(report.outcomes.iter().all(|o| !o.unchecked), "{:?}", report.outcomes);
    assert!(report.has_violation(), "the unguarded path is checked and blocks");
    let wal = std::fs::read(dir.join("wal.log")).expect("wal");
    assert!(wal.starts_with(&old_wal), "appended to, not archived");
    assert!(!dir.join("wal.log.stale").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
