//! A hand-rolled nonblocking readiness loop over `poll(2)`.
//!
//! Both listeners of the serve daemon — the local unix socket and the
//! `--listen` TCP gate — are multiplexed onto the supervisor thread by
//! one `LineGate`. Each
//! tick, one `poll` call covers every nonblocking listener and every
//! parked connection; the gate accepts what is pending and advances each
//! readable connection's line buffer. A connection leaves the gate when
//! its first line completes, tagged with the `Port` it arrived on, so
//! the caller can apply that port's op policy. The rules are the same on
//! every port: one `max_conns` cap over all parked connections, one
//! request-line bound, one idle reap, one UTF-8 decode. Thousands of idle
//! clients therefore cost a few bytes of buffer each and **zero
//! threads**, and no client — silent, slow or spraying bytes — can make
//! the supervisor wait on it.
//!
//! The build is std-only, so the two syscalls this needs (`poll`,
//! `get/setrlimit`) are declared directly against the platform libc the
//! binary already links — no new dependency. This module is the one
//! place the crate's `deny(unsafe_code)` is allowed back: each unsafe
//! block is a plain FFI call on locally owned, correctly-typed memory,
//! with the argument invariants stated at the call site.
#![allow(unsafe_code)]

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

/// Raise the soft open-file limit toward `want` (bounded by the hard
/// limit) and return the effective soft limit. A daemon holding
/// thousands of client sockets must not die on the default 1024.
pub fn raise_fd_limit(want: u64) -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: plain out-parameter syscall wrappers on a valid struct.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 1024;
    }
    if lim.cur >= want {
        return lim.cur;
    }
    let target = want.min(lim.max);
    let new = RLimit { cur: target, max: lim.max };
    // SAFETY: raising the soft limit within the hard limit.
    if unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
        target
    } else {
        lim.cur
    }
}

impl PollFd {
    fn readable(fd: RawFd) -> PollFd {
        PollFd { fd, events: POLLIN, revents: 0 }
    }

    /// Readable, or in an error/hangup state the caller discovers by
    /// reading — a read returns 0 or an error and the connection is torn
    /// down.
    fn ready(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// Upper bound on one NDJSON request line. Past it the connection gets a
/// structured bad-request and is closed — a client spraying bytes
/// without a newline must not grow daemon memory.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// A connection that connects but never completes a request line is
/// dropped after this long; its fd slot is reclaimed.
pub const CONN_IDLE_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a reply write may block once a stream has left the gate, so
/// a client that stops reading cannot wedge whoever replies to it.
const REPLY_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The port a listener serves. The gate treats every port alike; the
/// dispatcher applies each port's op policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Port {
    /// The local unix socket: every op.
    Local,
    /// `--listen`: every op, but a gate request may not carry `chaos`.
    Listen,
}

/// `match` over the `Unix`/`Tcp` arms of [`Listener`] or [`Stream`] with
/// one body for both: the std socket types share method names, not a
/// trait.
macro_rules! either {
    ($kind:ident, $value:expr, $s:ident => $body:expr) => {
        match $value {
            $kind::Unix($s) => $body,
            $kind::Tcp($s) => $body,
        }
    };
}

/// A listener the gate accepts from.
pub(crate) enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Bind a TCP listener on `addr`.
    pub fn tcp(addr: &str) -> Result<Listener, String> {
        TcpListener::bind(addr).map(Listener::Tcp).map_err(|e| format!("bind {addr}: {e}"))
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// One client connection on either transport. Requests, replies and job
/// results all travel over this one type, so every byte the daemon
/// writes is the same on unix and TCP.
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        either!(Stream, self, s => s.set_nonblocking(on))
    }

    /// Back to blocking mode with a bounded write, for the reply path.
    fn hand_back(self) -> Stream {
        let _ = self.set_nonblocking(false);
        let _ = either!(Stream, &self, s => s.set_write_timeout(Some(REPLY_WRITE_TIMEOUT)));
        self
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        either!(Stream, self, s => s.read(buf))
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        either!(Stream, self, s => s.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        either!(Stream, self, s => s.flush())
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        either!(Stream, self, s => s.as_raw_fd())
    }
}

/// One parked client connection: the nonblocking stream, the port it
/// arrived on, and the bytes received so far (a partial request line).
struct Conn {
    port: Port,
    stream: Stream,
    buf: Vec<u8>,
    opened: Instant,
}

/// What one poll produced for the dispatcher. Every stream in it is back
/// in blocking mode with a write timeout.
#[derive(Default)]
pub(crate) struct Pumped {
    /// Complete request lines with the port each arrived on.
    pub requests: Vec<(Port, Stream, String)>,
    /// Accepted past `max_conns`: the caller replies with a structured
    /// shed and closes.
    pub over_capacity: Vec<Stream>,
    /// Exceeded [`MAX_REQUEST_LINE`]: the caller replies bad-request and
    /// closes.
    pub over_length: Vec<Stream>,
    /// Connections dropped without producing a request (EOF, transport
    /// error, idle expiry).
    pub dropped: usize,
}

/// The nonblocking front end of every port: listeners plus the
/// connections parked on them until their request line completes.
pub(crate) struct LineGate {
    listeners: Vec<(Port, Listener)>,
    conns: Vec<Conn>,
    max_conns: usize,
    /// One `poll(2)` call's descriptors: listeners first, then conns.
    /// Rebuilt every tick — an append into a reused Vec, far cheaper
    /// than the syscall itself.
    fds: Vec<PollFd>,
}

impl LineGate {
    /// An empty gate that parks at most `max_conns` connections across
    /// all its listeners.
    pub fn new(max_conns: usize) -> LineGate {
        LineGate {
            listeners: Vec::new(),
            conns: Vec::new(),
            max_conns: max_conns.max(1),
            fds: Vec::new(),
        }
    }

    /// Serve `port` on `listener`, switched to nonblocking accept.
    pub fn listen(&mut self, port: Port, listener: Listener) -> Result<(), String> {
        either!(Listener, &listener, l => l.set_nonblocking(true))
            .map_err(|e| format!("nonblocking listener: {e}"))?;
        self.listeners.push((port, listener));
        Ok(())
    }

    /// Connections parked on every listener, waiting for a request line.
    pub fn open_conns(&self) -> usize {
        self.conns.len()
    }

    /// Wait up to `timeout` for any listener or parked connection to
    /// become readable, then accept what is pending and advance every
    /// readable connection.
    pub fn poll(&mut self, timeout: Duration) -> Pumped {
        self.fds.clear();
        for (_, listener) in &self.listeners {
            self.fds.push(PollFd::readable(either!(Listener, listener, l => l.as_raw_fd())));
        }
        for conn in &self.conns {
            self.fds.push(PollFd::readable(conn.stream.as_raw_fd()));
        }
        // Accepts that land below wait for the next tick's poll.
        let registered = self.conns.len();
        let ms = timeout.as_millis().min(i32::MAX as u128) as c_int;
        // SAFETY: fds points at a live, correctly sized pollfd array. A
        // timeout or EINTR simply means "run the supervision tick and
        // poll again", so the result needs no check.
        unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, ms) };

        let mut out = Pumped::default();
        for (idx, (port, listener)) in self.listeners.iter().enumerate() {
            if !self.fds[idx].ready() {
                continue;
            }
            loop {
                match listener.accept() {
                    Ok(stream) => {
                        if self.conns.len() >= self.max_conns {
                            out.over_capacity.push(stream.hand_back());
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            out.dropped += 1;
                            continue;
                        }
                        self.conns.push(Conn {
                            port: *port,
                            stream,
                            buf: Vec::new(),
                            opened: Instant::now(),
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    // EMFILE/ENFILE etc.: shed by not accepting this
                    // tick; existing connections keep working.
                    Err(_) => break,
                }
            }
        }
        // Walk conns in reverse so swap_remove never disturbs an index
        // still to be visited (fds registered this tick cover only the
        // prefix that existed at registration; fresh accepts above are
        // past `registered` and get their first read next tick).
        let base = self.listeners.len();
        for i in (0..self.conns.len()).rev() {
            let expired = self.conns[i].opened.elapsed() > CONN_IDLE_TIMEOUT;
            let readable = i < registered && self.fds[base + i].ready();
            if expired && !readable {
                self.conns.swap_remove(i);
                out.dropped += 1;
                continue;
            }
            if !readable {
                continue;
            }
            match advance(&mut self.conns[i]) {
                ConnStep::Keep => {}
                ConnStep::Drop => {
                    self.conns.swap_remove(i);
                    out.dropped += 1;
                }
                ConnStep::OverLength => {
                    let conn = self.conns.swap_remove(i);
                    out.over_length.push(conn.stream.hand_back());
                }
                ConnStep::Request(line) => {
                    let conn = self.conns.swap_remove(i);
                    out.requests.push((conn.port, conn.stream.hand_back(), line));
                }
            }
        }
        out
    }
}

enum ConnStep {
    Keep,
    Drop,
    OverLength,
    Request(String),
}

/// Read whatever the socket has. A complete line (everything up to the
/// first newline; the protocol is one request per connection) finishes
/// the connection's readiness phase. The line is decoded lossily, so a
/// request with invalid UTF-8 gets the same reply on every port.
fn advance(conn: &mut Conn) -> ConnStep {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return ConnStep::Drop,
            Ok(n) => {
                let scanned = conn.buf.len();
                conn.buf.extend_from_slice(&chunk[..n]);
                if let Some(pos) = conn.buf[scanned..].iter().position(|&b| b == b'\n') {
                    let line = &conn.buf[..scanned + pos];
                    return ConnStep::Request(String::from_utf8_lossy(line).into_owned());
                }
                if conn.buf.len() > MAX_REQUEST_LINE {
                    return ConnStep::OverLength;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return ConnStep::Keep,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ConnStep::Drop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// The two listener kinds every gate test runs over.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Unix,
        Tcp,
    }

    const KINDS: [Kind; 2] = [Kind::Unix, Kind::Tcp];

    /// Where a client reaches a listener the test bound.
    enum Peer {
        Unix(PathBuf),
        Tcp(std::net::SocketAddr),
    }

    impl Drop for Peer {
        fn drop(&mut self) {
            if let Peer::Unix(path) = self {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    impl Peer {
        fn connect(&self) -> Stream {
            match self {
                Peer::Unix(path) => Stream::Unix(UnixStream::connect(path).expect("connect")),
                Peer::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr).expect("connect")),
            }
        }
    }

    /// A fresh listener of `kind`; unix sockets get a path unique to the
    /// test `tag`.
    fn bind(kind: Kind, tag: &str) -> (Listener, Peer) {
        match kind {
            Kind::Unix => {
                let path = std::env::temp_dir()
                    .join(format!("lisa-netloop-{tag}-{}.sock", std::process::id()));
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path).expect("bind unix");
                (Listener::Unix(listener), Peer::Unix(path))
            }
            Kind::Tcp => {
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind tcp");
                let addr = listener.local_addr().expect("addr");
                (Listener::Tcp(listener), Peer::Tcp(addr))
            }
        }
    }

    /// A gate over one listener of `kind`, serving `port`.
    fn gate_over(kind: Kind, port: Port, max_conns: usize, tag: &str) -> (LineGate, Peer) {
        let (listener, peer) = bind(kind, &format!("{tag}-{kind:?}"));
        let mut gate = LineGate::new(max_conns);
        gate.listen(port, listener).expect("listen");
        (gate, peer)
    }

    /// Poll until `done` says the pumped output is what the test waits
    /// for, failing after a few seconds.
    fn poll_until(gate: &mut LineGate, what: &str, mut done: impl FnMut(Pumped) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(gate.poll(Duration::from_millis(50))) {
            assert!(Instant::now() < deadline, "{what} never surfaced");
        }
    }

    #[test]
    fn poll_reports_readiness_and_timeouts() {
        for (kind, port) in [(Kind::Unix, Port::Local), (Kind::Tcp, Port::Listen)] {
            readiness_and_timeouts(kind, port);
        }
    }

    fn readiness_and_timeouts(kind: Kind, port: Port) {
        let (mut gate, peer) = gate_over(kind, port, 8, "ready");
        let idle = Instant::now();
        let pumped = gate.poll(Duration::from_millis(20));
        assert!(pumped.requests.is_empty(), "{kind:?}: nothing connected yet");
        assert!(idle.elapsed() >= Duration::from_millis(10), "{kind:?}: idle poll times out");

        let mut client = peer.connect();
        let woke = Instant::now();
        let pumped = gate.poll(Duration::from_secs(5));
        assert!(woke.elapsed() < Duration::from_secs(2), "{kind:?}: pending accept is readable");
        assert!(pumped.requests.is_empty());
        assert_eq!(gate.open_conns(), 1, "{kind:?}: idle connection parked, no thread");

        client.write_all(b"{\"op\":\"ping\"}\n").expect("write");
        let woke = Instant::now();
        let pumped = gate.poll(Duration::from_secs(5));
        assert!(woke.elapsed() < Duration::from_secs(2), "{kind:?}: request line is readable");
        assert_eq!(pumped.requests.len(), 1, "{kind:?}");
        let (tag, _, line) = &pumped.requests[0];
        assert_eq!(*tag, port, "{kind:?}: the request carries its port");
        assert_eq!(line, "{\"op\":\"ping\"}");
        assert_eq!(gate.open_conns(), 0, "{kind:?}: request hands the stream to the dispatcher");
    }

    #[test]
    fn request_lines_are_bounded() {
        for kind in KINDS {
            let (mut gate, peer) = gate_over(kind, Port::Local, 8, "bounded");
            let mut client = peer.connect();
            // Written from a second thread: the gate reads the blob on
            // this one, so a full socket buffer cannot deadlock the test.
            let writer = std::thread::spawn(move || {
                let _ = client.write_all(&vec![b'x'; MAX_REQUEST_LINE + 4096]);
                client
            });
            poll_until(&mut gate, &format!("{kind:?}: overlong line"), |p| {
                !p.over_length.is_empty()
            });
            assert_eq!(gate.open_conns(), 0, "{kind:?}");
            drop(writer.join());
        }
    }

    #[test]
    fn connections_beyond_the_cap_are_handed_back() {
        for kind in KINDS {
            let (mut gate, peer) = gate_over(kind, Port::Local, 1, "cap");
            let _c1 = peer.connect();
            let _c2 = peer.connect();
            poll_until(&mut gate, &format!("{kind:?}: cap overflow"), |p| {
                !p.over_capacity.is_empty()
            });
            assert_eq!(gate.open_conns(), 1, "{kind:?}");
        }
    }

    #[test]
    fn unix_and_tcp_listeners_share_one_cap() {
        let (unix, unix_peer) = bind(Kind::Unix, "shared-cap");
        let (tcp, tcp_peer) = bind(Kind::Tcp, "shared-cap");
        let mut gate = LineGate::new(1);
        gate.listen(Port::Local, unix).expect("listen unix");
        gate.listen(Port::Listen, tcp).expect("listen tcp");
        let _u = unix_peer.connect();
        let _t = tcp_peer.connect();
        let mut shed = 0;
        poll_until(&mut gate, "shared cap overflow", |p| {
            shed += p.over_capacity.len();
            shed > 0
        });
        assert_eq!(gate.open_conns(), 1, "one connection parked across both listeners");
        assert_eq!(shed, 1, "the other is shed");
    }

    #[test]
    fn fd_limit_can_be_raised() {
        let effective = raise_fd_limit(4096);
        assert!(effective >= 1024);
    }
}
