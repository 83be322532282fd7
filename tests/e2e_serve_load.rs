//! End-to-end tests for the multi-tenant `lisa serve --listen` TCP gate:
//! verdict replies — and the replies to malformed input — are
//! byte-identical across the unix and TCP transports, silent clients on
//! one port never stall another, weighted-fair dequeue keeps a noisy
//! tenant from starving a quiet one, saturation is answered with
//! structured sheds (never silence), oversized job ids get a structured
//! bad-request, and the `stats` op exposes per-tenant depth and tail
//! latency.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lisa::Json;

/// Small gate fixture (passes): cheap jobs for protocol-level tests.
const SYSTEM: &str = "struct Session { id: int, closing: bool }\n\
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

const RULES: &str = "when calling create_ephemeral, require s != null\n";

/// Heavier fixture for the fairness test: several tests and rules so
/// each job takes long enough that a backlog is observable via `stats`.
const SLOW_SYSTEM: &str = "struct Order { id: int, paid: bool, cancelled: bool }\n\
     global orders: map<int, Order>;\n\
     global shipped: map<int, int>;\n\
     fn ship_order(o: Order, courier: int) { shipped.put(o.id, courier); }\n\
     fn checkout_ship(oid: int, courier: int) {\n\
         let o: Order = orders.get(oid);\n\
         if (o == null || o.paid == false || o.cancelled) { return; }\n\
         ship_order(o, courier);\n\
     }\n\
     fn admin_reship(oid: int, courier: int) {\n\
         let ord: Order = orders.get(oid);\n\
         if (ord == null || ord.paid == false) { return; }\n\
         ship_order(ord, courier);\n\
     }\n\
     fn seed(id: int, paid: bool, cancelled: bool) {\n\
         orders.put(id, new Order { id: id, paid: paid, cancelled: cancelled });\n\
     }\n\
     fn test_checkout() { seed(1, true, false); checkout_ship(1, 7); }\n\
     fn test_reship() { seed(2, true, false); admin_reship(2, 9); }\n\
     fn test_cancelled() { seed(3, true, true); checkout_ship(3, 7); }\n\
     fn test_unpaid() { seed(4, false, false); admin_reship(4, 9); }\n";

const SLOW_RULES: &str = "when calling ship_order, require o != null && o.paid == true\n\
     when calling ship_order, require o != null\n\
     when calling ship_order, require o.cancelled == false || o.paid == true\n";

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("lisa-e2e-load-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sys")).expect("mkdir");
        std::fs::create_dir_all(dir.join("slow-sys")).expect("mkdir");
        std::fs::write(dir.join("sys/session.sir"), SYSTEM).expect("sir");
        std::fs::write(dir.join("slow-sys/orders.sir"), SLOW_SYSTEM).expect("sir");
        std::fs::write(dir.join("rules.txt"), RULES).expect("rules");
        std::fs::write(dir.join("slow-rules.txt"), SLOW_RULES).expect("rules");
        Fixture { dir }
    }

    fn path(&self, rel: &str) -> String {
        self.dir.join(rel).to_string_lossy().into_owned()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("probe port")
        .local_addr()
        .expect("probe addr")
        .port()
}

struct Daemon {
    child: Child,
    socket: String,
    addr: String,
}

impl Daemon {
    fn start(fx: &Fixture, tag: &str, extra: &[&str]) -> Daemon {
        let socket = fx.path(&format!("{tag}.sock"));
        let addr = format!("127.0.0.1:{}", free_port());
        let state = fx.path(&format!("state-{tag}"));
        let mut args = vec![
            "serve", "--socket", &socket, "--state-root", &state, "--listen", &addr,
        ];
        args.extend_from_slice(extra);
        let child = Command::new(env!("CARGO_BIN_EXE_lisa"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lisa serve");
        let daemon = Daemon { child, socket, addr };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(reply) = daemon.try_tcp("{\"v\":1,\"op\":\"ping\"}") {
                assert!(reply.contains("\"ok\""), "ping: {reply}");
                break;
            }
            assert!(Instant::now() < deadline, "daemon never answered ping on {}", daemon.addr);
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon
    }

    fn try_tcp(&self, line: &str) -> Option<String> {
        let stream = TcpStream::connect(&self.addr).ok()?;
        exchange(&stream, &stream, line)
    }

    fn tcp(&self, line: &str) -> String {
        self.try_tcp(line).expect("tcp reply")
    }

    fn unix(&self, line: &str) -> String {
        let stream = UnixStream::connect(&self.socket).expect("unix connect");
        exchange(&stream, &stream, line).expect("unix reply")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One NDJSON request/reply on an already connected stream pair.
fn exchange<R: std::io::Read, W: Write>(r: R, mut w: W, line: &str) -> Option<String> {
    w.write_all(line.as_bytes()).ok()?;
    w.write_all(b"\n").ok()?;
    let mut reply = String::new();
    BufReader::new(r).read_line(&mut reply).ok()?;
    if reply.is_empty() {
        None
    } else {
        Some(reply)
    }
}

/// Send raw request bytes (no newline added) and read the one-line reply.
fn exchange_raw<S: Read + Write>(mut stream: S, bytes: &[u8]) -> String {
    // The daemon may answer an over-long line and close before it has
    // read every byte; the reply is still there to read.
    let _ = stream.write_all(bytes);
    let mut reply = String::new();
    let _ = BufReader::new(stream).read_line(&mut reply);
    reply
}

fn gate_line(job_id: &str, tenant: &str, system: &str, rules: &str) -> String {
    format!(
        "{{\"v\":1,\"op\":\"gate\",\"job_id\":\"{job_id}\",\"tenant\":\"{tenant}\",\
         \"system\":\"{}\",\"rules\":\"{}\",\"fail_mode\":\"open\"}}",
        lisa::json::escape(system),
        lisa::json::escape(rules),
    )
}

// ---------------------------------------------------------------------------
// Verdict-byte parity across transports
// ---------------------------------------------------------------------------

#[test]
fn tcp_and_unix_replies_are_byte_identical_modulo_job_id() {
    let fx = Fixture::new("parity");
    let daemon = Daemon::start(&fx, "parity", &["--workers", "2"]);
    let sys = fx.path("sys");
    let rules = fx.path("rules.txt");

    let via_tcp = daemon.tcp(&gate_line("par-tcp", "acme", &sys, &rules));
    let via_unix = daemon.unix(&gate_line("par-unix", "acme", &sys, &rules));
    assert!(via_tcp.contains("\"status\":\"done\""), "tcp: {via_tcp}");
    assert!(via_unix.contains("\"status\":\"done\""), "unix: {via_unix}");
    // Same job body, fresh state dirs: the only divergence allowed
    // between the two transports is the job id itself.
    assert_eq!(
        via_tcp.replace("par-tcp", "par-unix"),
        via_unix,
        "verdict bytes must be transport-independent"
    );

    // The stored verdict artifact is also transport-independent.
    let v_tcp = daemon.tcp("{\"v\":1,\"op\":\"verdict\",\"job_id\":\"par-tcp\"}");
    let v_unix = daemon.unix("{\"v\":1,\"op\":\"verdict\",\"job_id\":\"par-unix\"}");
    assert_eq!(v_tcp.replace("par-tcp", "par-unix"), v_unix);

    // Malformed input gets the same reply bytes on both transports too:
    // one readiness loop reads, bounds and decodes every port's lines.
    let overlong = vec![b'x'; 68 * 1024];
    let malformed: [(&str, &[u8]); 5] = [
        ("a 68 KiB line with no newline", &overlong[..]),
        ("invalid UTF-8", b"{\"v\":1,\"op\":\"\xff\xfe\"}\n"),
        ("bad JSON", b"{\"v\":1,\"op\":\n"),
        ("protocol v2", b"{\"v\":2,\"op\":\"ping\"}\n"),
        ("an unknown op", b"{\"v\":1,\"op\":\"frobnicate\"}\n"),
    ];
    for (what, bytes) in malformed {
        let via_tcp = exchange_raw(TcpStream::connect(&daemon.addr).expect("tcp connect"), bytes);
        let via_unix =
            exchange_raw(UnixStream::connect(&daemon.socket).expect("unix connect"), bytes);
        assert!(via_tcp.contains("\"status\":\"bad-request\""), "{what} over tcp: {via_tcp}");
        assert_eq!(via_tcp, via_unix, "{what}: reply bytes must be transport-independent");
    }
}

// ---------------------------------------------------------------------------
// Silent clients: no port waits on another port's client
// ---------------------------------------------------------------------------

#[test]
fn silent_clients_never_stall_other_ports() {
    let fx = Fixture::new("silent");
    let daemon = Daemon::start(&fx, "silent", &["--workers", "1"]);
    let ping = "{\"v\":1,\"op\":\"ping\"}";
    for transport in ["tcp", "unix"] {
        // Connected, never a byte written: one on the unix socket, one
        // on the `--listen` TCP port. A short pause lets the daemon
        // accept both before the timed ping.
        let _silent_unix = UnixStream::connect(&daemon.socket).expect("silent unix client");
        let _silent_tcp = TcpStream::connect(&daemon.addr).expect("silent tcp client");
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        let reply = if transport == "tcp" { daemon.tcp(ping) } else { daemon.unix(ping) };
        let took = started.elapsed();
        assert!(reply.contains("\"ok\""), "{transport} ping: {reply}");
        assert!(
            took < Duration::from_secs(1),
            "{transport} ping took {took:?} beside silent clients"
        );
    }
}

// ---------------------------------------------------------------------------
// Fairness: a noisy tenant cannot starve a quiet one
// ---------------------------------------------------------------------------

#[test]
fn quiet_tenant_overtakes_noisy_backlog() {
    let fx = Fixture::new("fair");
    let daemon = Daemon::start(
        &fx,
        "fair",
        &["--workers", "1", "--queue-cap", "256", "--tenants", "noisy:1,quiet:1"],
    );
    let sys = fx.path("slow-sys");
    let rules = fx.path("slow-rules.txt");

    // Flood from the noisy tenant; every reply bumps the shared finish
    // sequence so we can place the quiet job in the completion order.
    const NOISY: usize = 24;
    let seq = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for i in 0..NOISY {
        let addr = daemon.addr.clone();
        let line = gate_line(&format!("noisy-{i}"), "noisy", &sys, &rules);
        let seq = Arc::clone(&seq);
        handles.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(&addr).expect("connect");
            let reply = exchange(&stream, &stream, &line).expect("noisy reply");
            assert!(reply.contains("\"status\":\"done\""), "noisy: {reply}");
            seq.fetch_add(1, Ordering::SeqCst)
        }));
    }

    // Wait until the backlog is real: stats must show a deep noisy queue.
    let deadline = Instant::now() + Duration::from_secs(30);
    let depth_when_quiet_sent;
    loop {
        let stats = daemon.tcp("{\"v\":1,\"op\":\"stats\"}");
        let json = Json::parse(stats.trim()).expect("stats parses");
        let depth = json
            .get("tenants")
            .and_then(|t| t.get("noisy"))
            .and_then(|n| n.u64_of("queued"))
            .unwrap_or(0);
        if depth >= 8 {
            depth_when_quiet_sent = depth;
            break;
        }
        assert!(Instant::now() < deadline, "noisy backlog never formed: {stats}");
        std::thread::sleep(Duration::from_millis(5));
    }

    let quiet = daemon.tcp(&gate_line("quiet-0", "quiet", &sys, &rules));
    assert!(quiet.contains("\"status\":\"done\""), "quiet: {quiet}");
    let quiet_seq = seq.load(Ordering::SeqCst);

    for handle in handles {
        handle.join().expect("noisy client");
    }

    // With equal weights, stride scheduling admits the newcomer within a
    // couple of dequeues: the quiet job must finish ahead of most of the
    // backlog that was queued when it arrived (allow a small margin for
    // jobs in flight at submission time).
    let overtaken = depth_when_quiet_sent.saturating_sub(3);
    assert!(
        (quiet_seq as u64) <= NOISY as u64 - overtaken,
        "quiet job finished at sequence {quiet_seq} of {NOISY}, but {depth_when_quiet_sent} \
         noisy jobs were queued when it was submitted — the noisy tenant starved it"
    );
}

// ---------------------------------------------------------------------------
// Saturation: structured sheds, every connection answered
// ---------------------------------------------------------------------------

#[test]
fn saturated_daemon_sheds_structurally_and_answers_everyone() {
    let fx = Fixture::new("shed");
    let daemon = Daemon::start(
        &fx,
        "shed",
        &["--workers", "1", "--queue-cap", "2", "--tenant-cap", "2"],
    );
    let sys = fx.path("sys");
    let rules = fx.path("rules.txt");

    const BURST: usize = 20;
    let mut handles = Vec::new();
    for i in 0..BURST {
        let addr = daemon.addr.clone();
        let line = gate_line(&format!("burst-{i}"), "acme", &sys, &rules);
        handles.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(&addr).expect("connect");
            exchange(&stream, &stream, &line).expect("reply")
        }));
    }
    let replies: Vec<String> = handles.into_iter().map(|h| h.join().expect("client")).collect();
    assert_eq!(replies.len(), BURST, "every connection must be answered");

    let mut done = 0;
    let mut shed = 0;
    for reply in &replies {
        let json = Json::parse(reply.trim()).expect("reply parses");
        match json.str_of("status") {
            Some("done") => done += 1,
            Some("shed") => {
                shed += 1;
                assert!(
                    json.u64_of("retry_after_ms").unwrap_or(0) > 0,
                    "shed reply must carry a retry hint: {reply}"
                );
                assert!(json.str_of("error").is_some(), "shed carries a reason: {reply}");
            }
            other => panic!("unexpected status {other:?}: {reply}"),
        }
    }
    assert!(shed >= 1, "a 2-deep queue under a {BURST}-client burst must shed");
    assert_eq!(done + shed, BURST);

    // The shed counter shows up in stats.
    let stats = daemon.tcp("{\"v\":1,\"op\":\"stats\"}");
    let json = Json::parse(stats.trim()).expect("stats parses");
    let tenant_shed = json
        .get("tenants")
        .and_then(|t| t.get("acme"))
        .and_then(|a| a.u64_of("shed"))
        .unwrap_or(0);
    assert!(tenant_shed >= 1, "per-tenant shed count missing: {stats}");
}

// ---------------------------------------------------------------------------
// Bounded job ids and per-tenant stats
// ---------------------------------------------------------------------------

#[test]
fn oversized_job_id_gets_structured_bad_request() {
    let fx = Fixture::new("jobid");
    let daemon = Daemon::start(&fx, "jobid", &["--workers", "1"]);
    let long_id = "x".repeat(lisa::MAX_JOB_ID_LEN + 1);
    let reply =
        daemon.tcp(&gate_line(&long_id, "acme", &fx.path("sys"), &fx.path("rules.txt")));
    let json = Json::parse(reply.trim()).expect("reply parses");
    assert_eq!(json.str_of("status"), Some("bad-request"), "{reply}");
    assert!(
        json.str_of("error").unwrap_or("").contains("128-byte bound"),
        "error names the bound: {reply}"
    );
    // The same bound holds on the read path and the unix transport.
    let verdict = daemon
        .unix(&format!("{{\"v\":1,\"op\":\"verdict\",\"job_id\":\"{long_id}\"}}"));
    assert!(verdict.contains("bad-request"), "{verdict}");
}

#[test]
fn deeply_nested_request_gets_bad_request_and_the_daemon_keeps_serving() {
    let fx = Fixture::new("nested");
    let daemon = Daemon::start(&fx, "nested", &["--workers", "1"]);
    // One line of 65,000 `[`: under the request-line cap, far past the
    // nesting the JSON parser accepts.
    let reply = daemon.tcp(&"[".repeat(65_000));
    let json = Json::parse(reply.trim()).expect("reply parses");
    assert_eq!(json.str_of("status"), Some("bad-request"), "{reply}");
    // A new connection still gets an answer.
    assert!(daemon.tcp("{\"v\":1,\"op\":\"ping\"}").contains("\"ok\""));
    assert!(daemon.unix("{\"v\":1,\"op\":\"ping\"}").contains("\"ok\""));
}

#[test]
fn chaos_drills_are_refused_on_the_tcp_listener() {
    let fx = Fixture::new("chaos");
    let daemon = Daemon::start(&fx, "chaos", &["--workers", "1"]);
    let gate = gate_line("c-1", "default", &fx.path("sys"), &fx.path("rules.txt"));
    for drill in ["stall", "panic"] {
        let line = format!("{},\"chaos\":\"{drill}\"}}", gate.trim_end_matches('}'));
        let stream = TcpStream::connect(&daemon.addr).expect("tcp connect");
        stream.set_read_timeout(Some(Duration::from_secs(1))).expect("read timeout");
        let started = Instant::now();
        let reply = exchange(&stream, &stream, &line)
            .unwrap_or_else(|| panic!("no reply to a {drill} drill within 1 s"));
        assert!(started.elapsed() < Duration::from_secs(1), "{drill}: {reply}");
        let json = Json::parse(reply.trim()).expect("reply parses");
        assert_eq!(json.str_of("status"), Some("bad-request"), "{drill}: {reply}");
    }
    let stats = Json::parse(daemon.tcp("{\"v\":1,\"op\":\"stats\"}").trim()).expect("stats");
    assert_eq!(stats.u64_of("respawned_workers"), Some(0));
}

#[test]
fn stats_reports_per_tenant_depth_and_tail_latency() {
    let fx = Fixture::new("stats");
    let daemon = Daemon::start(&fx, "stats", &["--workers", "2", "--tenants", "acme:4,beta:1"]);
    let sys = fx.path("sys");
    let rules = fx.path("rules.txt");
    for (i, tenant) in [(0, "acme"), (1, "acme"), (2, "beta")] {
        let reply = daemon.tcp(&gate_line(&format!("s-{i}"), tenant, &sys, &rules));
        assert!(reply.contains("\"status\":\"done\""), "{reply}");
    }
    // The done reply is written before the worker settles its tenant
    // accounting, so poll until the counters catch up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = daemon.tcp("{\"v\":1,\"op\":\"stats\"}");
        if Json::parse(stats.trim())
            .ok()
            .and_then(|j| j.get("tenants").and_then(|t| t.get("beta")).and_then(|b| b.u64_of("done")))
            == Some(1)
        {
            break stats;
        }
        assert!(Instant::now() < deadline, "tenant accounting never settled: {stats}");
        std::thread::sleep(Duration::from_millis(10));
    };
    let json = Json::parse(stats.trim()).expect("stats parses");
    let tenants = json.get("tenants").expect("tenants object");
    for (name, weight, jobs) in [("acme", 4, 2), ("beta", 1, 1)] {
        let t = tenants.get(name).unwrap_or_else(|| panic!("tenant {name}: {stats}"));
        assert_eq!(t.u64_of("weight"), Some(weight), "{stats}");
        assert_eq!(t.u64_of("done"), Some(jobs), "{stats}");
        assert_eq!(t.u64_of("queued"), Some(0), "drained: {stats}");
        assert!(t.u64_of("p99_us").is_some(), "per-tenant p99 missing: {stats}");
    }
    assert!(stats.contains("\"listen_conns\""), "{stats}");
}
