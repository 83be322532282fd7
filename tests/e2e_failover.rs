//! End-to-end failover tests for replicated gate state: a leader ships
//! its journal frame-by-frame to a follower; the leader is killed at
//! every frame boundary; the follower promotes and finishes the run
//! with verdicts byte-identical to an uninterrupted leader — with the
//! version-scoped cache on and off. A seeded stream-fault sweep proves
//! the follower quarantines corrupt frames (re-requesting a full sync)
//! instead of applying them, and a process-level test runs the real
//! `lisa serve --follow` pair over TCP, SIGKILLs the leader, and
//! watches the follower take over. A silent client on a follower's
//! socket never delays the follower's other replies.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lisa::{
    gate_durable, DurableGateReport, DurableOptions, GateCache, GateOptions, PipelineConfig,
    RuleRegistry, StreamFaultInjector, TestSelection,
};
use lisa_analysis::TargetSpec;
use lisa_concolic::{discover_tests, SystemVersion};
use lisa_lang::Program;
use lisa_oracle::SemanticRule;
use lisa_store::journal::frame;
use lisa_store::{
    decode_wire, Applier, BusPoll, FrameDecoder, ReplBus, StreamFault, StreamFaults, Wire,
};

// ---------------------------------------------------------------------------
// Library-level fixture (same shape as e2e_recovery's)
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
    let name = format!("lisa-e2e-fo-{tag}-{}-{seq}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Run the durable gate with a replication bus attached, under
/// `root/job`, with the cache on or off.
fn run_replicated(root: &std::path::Path, bus: Arc<ReplBus>, cached: bool) -> DurableGateReport {
    let durable = DurableOptions {
        state_dir: root.join("job"),
        repl: Some(bus),
        cache: cached.then(|| Arc::new(GateCache::new())),
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

/// Resume (promote) a run on a follower's mirrored state root.
fn run_promoted(froot: &std::path::Path, cached: bool) -> DurableGateReport {
    let durable = DurableOptions {
        state_dir: froot.join("job"),
        cache: cached.then(|| Arc::new(GateCache::new())),
        ..DurableOptions::default()
    };
    gate_durable(
        &registry(),
        &version(),
        &PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() },
        &GateOptions::default(),
        &durable,
    )
    .expect("promoted gate run")
}

/// Drain every frame past `pos` from the bus.
fn drain(bus: &ReplBus, pos: &mut u64) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        match bus.poll_after(*pos, Duration::from_millis(1)) {
            BusPoll::Frames(frames) => {
                for (seq, payload) in frames {
                    *pos = seq;
                    out.push(payload.as_ref().clone());
                }
            }
            BusPoll::Idle { .. } => return out,
            BusPoll::Gap => panic!("retention too small for the test"),
        }
    }
}

/// One uninterrupted leader run: (verdict artifact, shipped payloads).
fn shipped_baseline(cached: bool) -> (String, Vec<Vec<u8>>) {
    let root = tmpdir(&format!("baseline-{cached}"));
    let bus = ReplBus::with_retention(&root, 1_000_000);
    let report = run_replicated(&root, bus.clone(), cached);
    assert!(report.durable);
    let mut pos = 0u64;
    let frames = drain(&bus, &mut pos);
    assert!(!frames.is_empty(), "the run must publish frames");
    let _ = std::fs::remove_dir_all(&root);
    (report.verdicts_text(), frames)
}

fn apply_prefix(froot: &std::path::Path, frames: &[Vec<u8>]) {
    let applier = Applier::new(froot).expect("applier");
    for payload in frames {
        match decode_wire(payload).expect("shipped frame decodes") {
            Wire::Event { event, .. } => applier.apply(&event).expect("apply"),
            other => panic!("bus never ships {other:?}"),
        }
    }
}

fn kill_matrix(cached: bool) {
    let (v0, frames) = shipped_baseline(cached);
    let rules = registry().len();
    for k in 0..=frames.len() {
        let froot = tmpdir(&format!("kill-{cached}-{k}"));
        apply_prefix(&froot, &frames[..k]);
        // The leader is dead; the follower promotes and resumes the run
        // through the ordinary recovery path on its mirrored root.
        let report = run_promoted(&froot, cached);
        assert_eq!(
            report.verdicts_text(),
            v0,
            "cache={cached}, kill point {k}: promoted verdicts must be byte-identical"
        );
        assert_eq!(report.reused + report.fresh, rules, "cache={cached}, kill point {k}");
        let _ = std::fs::remove_dir_all(&froot);
    }
}

#[test]
fn leader_killed_at_every_frame_boundary_follower_finishes_identically() {
    kill_matrix(false);
}

#[test]
fn leader_killed_at_every_frame_boundary_follower_finishes_identically_with_cache() {
    kill_matrix(true);
}

#[test]
fn full_sync_bootstraps_a_late_follower_to_all_reused() {
    // The follower attaches only after the leader's run is over: the
    // full-sync walk alone must hand it every settled verdict.
    let root = tmpdir("late-leader");
    let bus = ReplBus::with_retention(&root, 1_000_000);
    let report = run_replicated(&root, bus.clone(), false);
    let v0 = report.verdicts_text();
    let rules = registry().len();

    let (payloads, _pos) = bus.sync_payloads();
    let froot = tmpdir("late-follower");
    let applier = Applier::new(&froot).expect("applier");
    let mut synced = false;
    for payload in &payloads {
        match decode_wire(payload).expect("sync frame decodes") {
            Wire::Event { event, .. } => applier.apply(&event).expect("apply"),
            Wire::SyncDone { .. } => synced = true,
            Wire::Heartbeat { .. } => {}
        }
    }
    assert!(synced, "full sync must end with SyncDone");

    let promoted = run_promoted(&froot, false);
    assert_eq!(promoted.verdicts_text(), v0, "late follower verdicts must be identical");
    assert_eq!(promoted.reused, rules, "every verdict came from the mirror");
    assert_eq!(promoted.fresh, 0, "nothing re-executed");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&froot);
}

#[test]
fn seeded_stream_faults_quarantine_the_stream_never_the_state() {
    // The follower's contract under a hostile stream: a corrupt frame is
    // never applied — the connection is quarantined and a full re-sync
    // requested — so the mirrored journal is at every moment a byte
    // prefix of the clean mirror, and the sweep always converges once
    // the fault budget is spent.
    let (v0, frames) = shipped_baseline(false);

    // Clean full application, for the prefix oracle.
    let clean = tmpdir("fault-clean");
    apply_prefix(&clean, &frames);
    let full_wal = std::fs::read(clean.join("job/wal.log")).expect("clean mirror wal");
    let _ = std::fs::remove_dir_all(&clean);

    let mut any_fired = false;
    let mut any_requarantined = false;
    for seed in 0..20u64 {
        let injector = StreamFaultInjector::random(seed);
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            assert!(attempts <= 10, "fault plan {seed}: follower never converged");
            let froot = tmpdir(&format!("fault-{seed}"));
            let applier = Applier::new(&froot).expect("applier");
            let mut dec = FrameDecoder::new();
            let mut desync = false;
            let mut torn = false;
            for payload in &frames {
                let mut chunk = frame(payload);
                match injector.on_chunk(chunk.len()) {
                    Some(StreamFault::Torn { keep }) => {
                        // The connection dies mid-frame: the tail of this
                        // chunk and everything after it never arrives.
                        chunk.truncate(keep.min(chunk.len()));
                        torn = true;
                    }
                    Some(StreamFault::Short { keep }) => {
                        // A short read silently loses bytes: the stream
                        // keeps flowing but is desynced from here on.
                        chunk.truncate(keep.min(chunk.len()));
                    }
                    Some(StreamFault::Flip { at }) => {
                        let n = chunk.len();
                        chunk[at % n] ^= 0x20;
                    }
                    Some(StreamFault::DropHeartbeat) | None => {}
                }
                dec.feed(&chunk);
                loop {
                    match dec.next_frame() {
                        Ok(Some(p)) => match decode_wire(&p) {
                            Ok(Wire::Event { event, .. }) => {
                                if applier.apply(&event).is_err() {
                                    desync = true;
                                }
                            }
                            Ok(_) => {}
                            Err(_) => desync = true,
                        },
                        Ok(None) => break,
                        Err(_) => {
                            // Checksum or length-sanity failure: the real
                            // follower drops the connection here.
                            desync = true;
                            break;
                        }
                    }
                    if desync {
                        break;
                    }
                }
                if desync || torn {
                    break;
                }
            }
            // A partial frame left buffered at end-of-stream is the
            // silent-desync case the staleness guard catches.
            let stalled = dec.pending() > 0;
            let wal = std::fs::read(froot.join("job/wal.log")).unwrap_or_default();
            assert!(
                full_wal.starts_with(&wal),
                "fault plan {seed}, attempt {attempts}: corrupt bytes reached the mirror"
            );
            if !(desync || torn || stalled) {
                // Converged: promotion from this mirror is byte-identical.
                let promoted = run_promoted(&froot, false);
                assert_eq!(promoted.verdicts_text(), v0, "fault plan {seed}");
                let _ = std::fs::remove_dir_all(&froot);
                break;
            }
            any_requarantined = true;
            let _ = std::fs::remove_dir_all(&froot);
        }
        if !injector.fired().is_empty() {
            any_fired = true;
        }
    }
    assert!(any_fired, "the sweep must exercise at least one stream fault");
    assert!(any_requarantined, "at least one plan must force a quarantine + re-sync");
}

// ---------------------------------------------------------------------------
// Process-level: lisa serve --repl-listen / --follow, SIGKILL, promotion
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

struct CliFixture {
    dir: PathBuf,
}

impl CliFixture {
    fn new(tag: &str) -> CliFixture {
        let dir = std::env::temp_dir().join(format!("lisa-fo-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sys")).expect("mkdir");
        std::fs::write(dir.join("sys/orders.sir"), SYSTEM).expect("sir");
        std::fs::write(dir.join("strict.txt"), STRICT_RULES).expect("rules");
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

struct Daemon {
    child: Child,
    socket: String,
}

impl Daemon {
    fn start(fx: &CliFixture, socket: &str, state: &str, extra: &[&str]) -> Daemon {
        let socket = fx.path(socket);
        let mut args = vec![
            "serve".to_string(),
            "--socket".to_string(),
            socket.clone(),
            "--state-root".to_string(),
            fx.path(state),
            "--workers".to_string(),
            "2".to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let child = Command::new(env!("CARGO_BIN_EXE_lisa"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lisa serve");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !std::path::Path::new(&socket).exists() {
            assert!(Instant::now() < deadline, "daemon never bound its socket");
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

/// A TCP port that was free a moment ago.
fn free_port() -> u16 {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let port = listener.local_addr().expect("probe addr").port();
    drop(listener);
    port
}

/// Poll an op against a socket until `want(reply)` or the deadline.
fn poll_until(
    fx: &CliFixture,
    socket: &str,
    args: &[&str],
    what: &str,
    want: impl Fn(&str) -> bool,
) -> String {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let mut full = vec!["submit", "--socket", socket];
        full.extend_from_slice(args);
        let (_code, out) = fx.run(&full);
        if want(&out) {
            return out;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}: last reply {out}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn sigkilled_leader_is_replaced_by_its_promoted_follower() {
    let fx = CliFixture::new("promo");
    let port = free_port();
    let repl = format!("127.0.0.1:{port}");
    let mut leader = Daemon::start(
        &fx,
        "leader.sock",
        "lstate",
        &["--repl-listen", &repl, "--heartbeat-ms", "100"],
    );
    let follow = format!("tcp:{repl}");
    let follower = Daemon::start(
        &fx,
        "follower.sock",
        "fstate",
        &["--follow", &follow, "--heartbeat-ms", "100", "--heartbeat-timeout-ms", "800"],
    );

    // The follower attaches and completes its initial full sync.
    let out = poll_until(&fx, &follower.socket, &["--op", "stats"], "initial sync", |o| {
        o.contains("\"synced\":true")
    });
    assert!(out.contains("\"role\":\"follower\""), "{out}");

    // Settle a violating job on the leader.
    let sys = fx.path("sys");
    let strict = fx.path("strict.txt");
    let (code, out) = fx.run(&[
        "submit", "--socket", &leader.socket, "--system", &sys, "--rules", &strict,
        "--job-id", "job1",
    ]);
    assert_eq!(code, 1, "violations must block: {out}");
    assert!(out.contains("\"decision\":\"BLOCK\""), "{out}");

    // The verdict reaches the follower's mirror; both sides answer the
    // read-only verdict op with the same digest.
    let fout = poll_until(
        &fx,
        &follower.socket,
        &["--op", "verdict", "--job-id", "job1"],
        "mirrored verdict",
        |o| o.contains("\"decision\":\"BLOCK\""),
    );
    let (_, lout) =
        fx.run(&["submit", "--socket", &leader.socket, "--op", "verdict", "--job-id", "job1"]);
    let fnv_of = |s: &str| {
        s.split("\"verdicts_fnv\":\"")
            .nth(1)
            .and_then(|t| t.split('"').next())
            .map(str::to_owned)
    };
    let ffnv = fnv_of(&fout).expect("follower digest");
    assert_eq!(Some(ffnv.clone()), fnv_of(&lout), "mirror digest diverged: {fout} vs {lout}");

    // Writes are refused while the leader is alive (Degradation:
    // stale reads allowed, no split-brain writes).
    let (_code, out) = fx.run(&[
        "submit", "--socket", &follower.socket, "--system", &sys, "--rules", &strict,
        "--job-id", "rogue",
    ]);
    assert!(out.contains("read-only"), "follower must refuse writes: {out}");

    // Quiesce, then compare the mirrored journal byte-for-byte.
    poll_until(&fx, &follower.socket, &["--op", "stats"], "zero lag", |o| {
        o.contains("\"lag_frames\":0")
    });
    let lwal = std::fs::read(fx.dir.join("lstate/job1/wal.log")).expect("leader wal");
    let fwal = std::fs::read(fx.dir.join("fstate/job1/wal.log")).expect("follower wal");
    assert_eq!(lwal, fwal, "mirrored journal must be byte-identical");

    // SIGKILL the leader: heartbeats stop, the follower times out and
    // promotes itself into a full read-write daemon.
    leader.child.kill().expect("SIGKILL leader");
    leader.child.wait().expect("reap leader");
    let out = poll_until(&fx, &follower.socket, &["--op", "stats"], "promotion", |o| {
        o.contains("\"role\":\"leader\"")
    });
    assert!(out.contains("\"promotions\":1"), "{out}");
    assert!(out.contains("repl.frames_applied"), "repl counters must survive promotion: {out}");

    // Resubmitting the settled job to the promoted follower reuses every
    // verdict from the mirrored journal — nothing re-executes, and the
    // decision is identical to the dead leader's.
    let (code, out) = fx.run(&[
        "submit", "--socket", &follower.socket, "--system", &sys, "--rules", &strict,
        "--job-id", "job1",
    ]);
    assert_eq!(code, 1, "promoted decision identical: {out}");
    assert!(out.contains("\"decision\":\"BLOCK\""), "{out}");
    assert!(out.contains("\"reused\":1"), "verdict must come from the mirror: {out}");
    assert!(out.contains("\"fresh\":0"), "nothing re-executed: {out}");

    // And it accepts brand-new work.
    let (code, out) = fx.run(&[
        "submit", "--socket", &follower.socket, "--system", &sys, "--rules", &strict,
        "--job-id", "job2",
    ]);
    assert_eq!(code, 1, "promoted daemon gates new jobs: {out}");

    let (code, _) = fx.run(&["submit", "--socket", &follower.socket, "--op", "shutdown"]);
    assert_eq!(code, 0);
}

#[test]
fn follower_bounds_oversized_job_ids_on_every_op() {
    let fx = CliFixture::new("jobid");
    let repl = format!("127.0.0.1:{}", free_port());
    let _leader = Daemon::start(
        &fx,
        "leader.sock",
        "lstate",
        &["--repl-listen", &repl, "--heartbeat-ms", "100"],
    );
    let follow = format!("tcp:{repl}");
    let follower = Daemon::start(
        &fx,
        "follower.sock",
        "fstate",
        &["--follow", &follow, "--heartbeat-ms", "100", "--heartbeat-timeout-ms", "5000"],
    );
    poll_until(&fx, &follower.socket, &["--op", "stats"], "initial sync", |o| {
        o.contains("\"synced\":true")
    });

    // A 10 KiB id gets the leader's structured bad-request on both
    // follower ops, and the reply never echoes it.
    let long_id = "x".repeat(10 * 1024);
    let socket = std::path::Path::new(&follower.socket);
    for op in ["verdict", "gate"] {
        let line = format!(
            "{{\"v\":1,\"op\":\"{op}\",\"job_id\":\"{long_id}\",\"system\":\"{}\",\
             \"rules\":\"{}\"}}",
            fx.path("sys"),
            fx.path("strict.txt"),
        );
        let reply = lisa::request(socket, &line).expect("follower reply");
        assert!(reply.len() < 256, "{op}: reply must stay bounded, got {} bytes", reply.len());
        let json = lisa::Json::parse(&reply).expect("reply parses");
        assert_eq!(json.str_of("status"), Some("bad-request"), "{op}: {reply}");
        assert_eq!(json.str_of("job_id"), Some(""), "{op}: {reply}");
        assert!(
            json.str_of("error").unwrap_or("").contains("128-byte bound"),
            "{op}: error names the bound: {reply}"
        );
    }
    let (code, _) = fx.run(&["submit", "--socket", &follower.socket, "--op", "shutdown"]);
    assert_eq!(code, 0);
}

#[test]
fn silent_client_never_stalls_a_follower() {
    let fx = CliFixture::new("silent");
    let repl = format!("127.0.0.1:{}", free_port());
    let _leader = Daemon::start(
        &fx,
        "leader.sock",
        "lstate",
        &["--repl-listen", &repl, "--heartbeat-ms", "100"],
    );
    let follow = format!("tcp:{repl}");
    let follower = Daemon::start(
        &fx,
        "follower.sock",
        "fstate",
        &["--follow", &follow, "--heartbeat-ms", "100", "--heartbeat-timeout-ms", "5000"],
    );
    poll_until(&fx, &follower.socket, &["--op", "stats"], "initial sync", |o| {
        o.contains("\"synced\":true")
    });

    // Connected, never a byte written. A short pause lets the follower
    // accept it before the timed request.
    let _silent = std::os::unix::net::UnixStream::connect(&follower.socket).expect("silent");
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    let (code, out) = fx.run(&["submit", "--socket", &follower.socket, "--op", "stats"]);
    let took = started.elapsed();
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("\"role\":\"follower\""), "{out}");
    assert!(took < Duration::from_secs(1), "stats took {took:?} beside a silent client");

    let (code, _) = fx.run(&["submit", "--socket", &follower.socket, "--op", "shutdown"]);
    assert_eq!(code, 0);
}
