//! Leader → follower journal shipping (Passive Redundancy).
//!
//! The store layer is single-node; this module makes its *state*
//! replicable. A leader publishes every durable mutation of its state
//! root — journal record appends and journal resets — onto a
//! [`ReplBus`]; subscribers (followers) receive those
//! mutations as length-prefixed, CRC'd wire frames and apply them into
//! their own state root with an [`Applier`]. Because the follower's root
//! is maintained as a byte-faithful mirror of the leader's journals, a
//! promoted follower recovers through the *existing* `RunStore` replay
//! path — resuming in-flight runs exactly as `resume` does today.
//!
//! Wire format (one frame, same envelope as the on-disk journal):
//!
//! ```text
//! len: u32 LE | crc: u64 LE (FNV-1a over payload) | payload
//! ```
//!
//! Payload layout (binary, little-endian, versioned by the NDJSON
//! handshake that precedes the stream — `{"v":1,"op":"follow"}`):
//!
//! ```text
//! tag u8 | seq u64 | tag-specific fields
//!   1 FileSnapshot:  path_len u16 | path | data_len u32 | data
//!   2 Append:        path_len u16 | path | rec_len u32 | record payload
//!   3 Reset:         path_len u16 | path
//!   4 Heartbeat:     bytes u64   (leader's cumulative published bytes)
//!   5 SyncDone:      bytes u64
//! ```
//!
//! This codepath is **network-facing**: every length field is
//! bounds-checked against the remaining buffer and a sane maximum before
//! any allocation, a hostile path can never escape the follower's state
//! root, and a frame that fails its checksum is *rejected* — the decoder
//! reports it and the follower re-requests a full sync rather than
//! guessing where the next frame starts.

use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Component, Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::journal::{fnv1a, frame, write_file_atomic, FRAME_HEADER, MAX_RECORD};

/// Replication protocol version, agreed in the NDJSON handshake before
/// any binary frame flows.
pub const REPL_VERSION: u64 = 1;

/// Upper bound on one wire frame payload: a full record or file plus
/// headroom for the header and a path. A length above this is treated as
/// corruption, never allocated.
pub const MAX_WIRE_FRAME: u32 = MAX_RECORD + 4096;

/// Longest relative path a frame may name.
const MAX_PATH: usize = 512;

// ---------------------------------------------------------------------------
// Events and wire codec
// ---------------------------------------------------------------------------

/// One replicated mutation of the leader's state root. Paths are
/// *relative* to the state root on both sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplEvent {
    /// Replace the whole file atomically (the initial full sync).
    FileSnapshot { path: String, data: Vec<u8> },
    /// Append one journal record (the payload, not the framed bytes).
    Append { path: String, record: Vec<u8> },
    /// Truncate a journal to empty (a stale run was archived).
    Reset { path: String },
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wire {
    /// A state mutation, with the bus sequence number that orders it.
    Event { seq: u64, event: ReplEvent },
    /// Leader liveness + progress: its current sequence number and
    /// cumulative published bytes (the follower's lag denominators).
    Heartbeat { seq: u64, bytes: u64 },
    /// End of the initial full sync: the follower is caught up to `seq`.
    SyncDone { seq: u64, bytes: u64 },
}

fn put_path(out: &mut Vec<u8>, path: &str) {
    out.extend_from_slice(&(path.len().min(u16::MAX as usize) as u16).to_le_bytes());
    out.extend_from_slice(path.as_bytes());
}

/// Encode one wire payload (the part inside the frame envelope).
pub fn encode_wire(wire: &Wire) -> Vec<u8> {
    let mut out = Vec::new();
    match wire {
        Wire::Event { seq, event } => match event {
            ReplEvent::FileSnapshot { path, data } => {
                out.push(1);
                out.extend_from_slice(&seq.to_le_bytes());
                put_path(&mut out, path);
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
            ReplEvent::Append { path, record } => {
                out.push(2);
                out.extend_from_slice(&seq.to_le_bytes());
                put_path(&mut out, path);
                out.extend_from_slice(&(record.len() as u32).to_le_bytes());
                out.extend_from_slice(record);
            }
            ReplEvent::Reset { path } => {
                out.push(3);
                out.extend_from_slice(&seq.to_le_bytes());
                put_path(&mut out, path);
            }
        },
        Wire::Heartbeat { seq, bytes } => {
            out.push(4);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&bytes.to_le_bytes());
        }
        Wire::SyncDone { seq, bytes } => {
            out.push(5);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&bytes.to_le_bytes());
        }
    }
    out
}

/// Bounds-checked cursor over a wire payload. Every read states what it
/// needs and fails cleanly when the buffer is short — a hostile length
/// can cost at most one rejected frame, never a panic or a huge
/// allocation.
struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.off < n {
            return Err(format!(
                "payload truncated: need {n} byte(s), have {}",
                self.buf.len() - self.off
            ));
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn path(&mut self) -> Result<String, String> {
        let len = self.u16()? as usize;
        if len == 0 || len > MAX_PATH {
            return Err(format!("bad path length {len}"));
        }
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| "path is not utf-8".to_string())
    }

    fn blob(&mut self) -> Result<Vec<u8>, String> {
        let len = self.u32()?;
        if len > MAX_WIRE_FRAME {
            return Err(format!("blob length {len} exceeds frame maximum"));
        }
        Ok(self.take(len as usize)?.to_vec())
    }
}

/// Decode one wire payload. Errors mean a malformed or hostile frame;
/// the caller must treat the stream as desynchronized.
pub fn decode_wire(payload: &[u8]) -> Result<Wire, String> {
    let mut c = Cursor { buf: payload, off: 0 };
    let tag = c.u8()?;
    let seq = c.u64()?;
    let wire = match tag {
        1 => Wire::Event {
            seq,
            event: ReplEvent::FileSnapshot { path: c.path()?, data: c.blob()? },
        },
        2 => Wire::Event { seq, event: ReplEvent::Append { path: c.path()?, record: c.blob()? } },
        3 => Wire::Event { seq, event: ReplEvent::Reset { path: c.path()? } },
        4 => Wire::Heartbeat { seq, bytes: c.u64()? },
        5 => Wire::SyncDone { seq, bytes: c.u64()? },
        other => return Err(format!("unknown wire tag {other}")),
    };
    if c.off != payload.len() {
        return Err(format!("{} trailing byte(s) after frame body", payload.len() - c.off));
    }
    Ok(wire)
}

// ---------------------------------------------------------------------------
// Incremental frame decoding (the follower's read path)
// ---------------------------------------------------------------------------

/// Incremental decoder for a stream of wire frames. Feed it raw bytes as
/// they arrive; it yields complete, checksum-verified payloads.
///
/// Unlike the on-disk [`crate::journal::scan`] — which trusts framing
/// enough to *skip* a corrupt record, because the surrounding file still
/// frames correctly — a corrupt frame on a network stream means the
/// declared length itself cannot be trusted, so there is no safe resync
/// point. [`FrameDecoder::next_frame`] therefore returns an error and
/// the caller drops the connection and re-requests a full sync.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Frames rejected for checksum or length-sanity failures.
    pub rejected: u64,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Buffer newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (a partial frame).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Pop the next complete payload, `Ok(None)` if more bytes are
    /// needed, or an error when the stream is corrupt (hostile length or
    /// checksum mismatch) and must be re-established.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        if self.buf.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[0..4].try_into().unwrap());
        // The length is attacker-controlled input: check it against the
        // protocol maximum BEFORE any allocation or wait-for-more-bytes
        // decision. A giant length must not make us buffer gigabytes.
        if len > MAX_WIRE_FRAME {
            self.rejected += 1;
            lisa_telemetry::counter_add("repl.frames_rejected", 1);
            return Err(format!("frame length {len} exceeds maximum {MAX_WIRE_FRAME}"));
        }
        let total = FRAME_HEADER + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let crc = u64::from_le_bytes(self.buf[4..12].try_into().unwrap());
        let payload = self.buf[FRAME_HEADER..total].to_vec();
        if fnv1a(&payload) != crc {
            self.rejected += 1;
            lisa_telemetry::counter_add("repl.frames_rejected", 1);
            return Err("frame checksum mismatch".to_string());
        }
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

// ---------------------------------------------------------------------------
// Stream fault injection seam
// ---------------------------------------------------------------------------

/// A fault to apply to one received chunk of the replication stream.
/// Mirrors [`crate::IoFault`] for the disk seams; `lisa::faults`
/// provides the seeded implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFault {
    /// Deliver only the first `keep` bytes of the chunk, then drop the
    /// connection — a frame torn mid-ship.
    Torn { keep: usize },
    /// Flip one byte of the chunk (checksum-caught corruption).
    Flip { at: usize },
    /// Deliver only the first `keep` bytes and silently lose the rest —
    /// the stream desynchronizes at the next frame.
    Short { keep: usize },
    /// Suppress heartbeat frames decoded from this chunk, as if the
    /// leader's heartbeat stalled in flight.
    DropHeartbeat,
}

/// Injection hooks at the follower's receive seam. The default injects
/// nothing.
pub trait StreamFaults: Send + Sync {
    /// Consulted once per received chunk of `len` bytes.
    fn on_chunk(&self, _len: usize) -> Option<StreamFault> {
        None
    }
}

// ---------------------------------------------------------------------------
// The leader-side publisher bus
// ---------------------------------------------------------------------------

/// Outcome of polling the bus for frames past a position.
#[derive(Debug)]
pub enum BusPoll {
    /// New payloads, each tagged with its sequence number.
    Frames(Vec<(u64, Arc<Vec<u8>>)>),
    /// Nothing new within the timeout; current (seq, bytes) for a
    /// heartbeat.
    Idle { seq: u64, bytes: u64 },
    /// The requested position fell out of retention — the subscriber
    /// must re-request a full sync.
    Gap,
}

struct BusInner {
    seq: u64,
    bytes: u64,
    log: VecDeque<(u64, Arc<Vec<u8>>)>,
    retain: usize,
}

/// The leader's replication publisher: an in-memory, bounded log of
/// encoded wire payloads, fed by the store's mutation seams and drained
/// by one shipper thread per follower. Subscribers that fall behind
/// retention get [`BusPoll::Gap`] and full-resync.
pub struct ReplBus {
    root: PathBuf,
    inner: Mutex<BusInner>,
    changed: Condvar,
}

impl ReplBus {
    pub fn new(root: impl Into<PathBuf>) -> Arc<ReplBus> {
        ReplBus::with_retention(root, 8192)
    }

    pub fn with_retention(root: impl Into<PathBuf>, retain: usize) -> Arc<ReplBus> {
        Arc::new(ReplBus {
            root: root.into(),
            inner: Mutex::new(BusInner {
                seq: 0,
                bytes: 0,
                log: VecDeque::new(),
                retain: retain.max(1),
            }),
            changed: Condvar::new(),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Current (sequence, cumulative bytes).
    pub fn position(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        (inner.seq, inner.bytes)
    }

    /// Relativize `path` against the root; mutations outside the root
    /// are not replicated.
    fn rel(&self, path: &Path) -> Option<String> {
        path.strip_prefix(&self.root).ok().and_then(|p| p.to_str()).map(str::to_string)
    }

    /// Publish a journal record append.
    pub fn publish_append(&self, path: &Path, record: &[u8]) {
        if let Some(path) = self.rel(path) {
            self.publish(ReplEvent::Append { path, record: record.to_vec() });
        }
    }

    /// Publish a journal truncation.
    pub fn publish_reset(&self, path: &Path) {
        if let Some(path) = self.rel(path) {
            self.publish(ReplEvent::Reset { path });
        }
    }

    fn publish(&self, event: ReplEvent) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.seq += 1;
        let payload = encode_wire(&Wire::Event { seq: inner.seq, event });
        inner.bytes += (FRAME_HEADER + payload.len()) as u64;
        let entry = (inner.seq, Arc::new(payload));
        inner.log.push_back(entry);
        while inner.log.len() > inner.retain {
            inner.log.pop_front();
        }
        drop(inner);
        self.changed.notify_all();
        if lisa_telemetry::metrics_enabled() {
            lisa_telemetry::counter_add("repl.events_published", 1);
        }
    }

    /// Frames with sequence > `pos`, waiting up to `timeout` for news.
    pub fn poll_after(&self, pos: u64, timeout: Duration) -> BusPoll {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.seq == pos {
            let (guard, _) = self
                .changed
                .wait_timeout(inner, timeout)
                .unwrap_or_else(|p| p.into_inner());
            inner = guard;
        }
        if inner.seq == pos {
            return BusPoll::Idle { seq: inner.seq, bytes: inner.bytes };
        }
        // If the oldest retained entry is already past pos+1, the
        // subscriber missed frames it can never get from the log.
        match inner.log.front() {
            Some(&(oldest, _)) if oldest > pos + 1 => return BusPoll::Gap,
            None if inner.seq > pos => return BusPoll::Gap,
            _ => {}
        }
        BusPoll::Frames(inner.log.iter().filter(|(s, _)| *s > pos).cloned().collect())
    }

    /// Build the initial full sync for a new subscriber: one
    /// `FileSnapshot` payload per file currently under the root, plus a
    /// trailing `SyncDone`, all captured atomically against concurrent
    /// publishes (the walk holds the bus lock). Returns the payloads and
    /// the sequence the subscriber is caught up to.
    ///
    /// Node-local files — `metrics.journal`, sockets, temp files — are
    /// deliberately not shipped.
    pub fn sync_payloads(&self) -> (Vec<Vec<u8>>, u64) {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let (seq, bytes) = (inner.seq, inner.bytes);
        let mut files = Vec::new();
        collect_files(&self.root, &self.root, &mut files);
        files.sort();
        let mut payloads = Vec::with_capacity(files.len() + 1);
        for rel in files {
            let Ok(data) = std::fs::read(self.root.join(&rel)) else { continue };
            if data.len() as u32 > MAX_RECORD {
                continue;
            }
            payloads.push(encode_wire(&Wire::Event {
                seq,
                event: ReplEvent::FileSnapshot { path: rel, data },
            }));
        }
        payloads.push(encode_wire(&Wire::SyncDone { seq, bytes }));
        (payloads, seq)
    }
}

/// True for files that never leave the node they were written on.
fn node_local(name: &str) -> bool {
    name == "metrics.journal"
        || name.ends_with(".tmp")
        || name.ends_with(".sock")
        || name.ends_with(".quarantine")
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            collect_files(root, &path, out);
        } else if meta.is_file() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if node_local(&name) {
                continue;
            }
            if let Ok(rel) = path.strip_prefix(root) {
                if let Some(rel) = rel.to_str() {
                    out.push(rel.to_string());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The follower-side applier
// ---------------------------------------------------------------------------

/// Applies replicated events into a follower's state root. Append-only
/// and path-confined: a frame can write under the root, never outside
/// it, and a corrupt frame never reaches this layer (the decoder rejects
/// it first).
pub struct Applier {
    root: PathBuf,
}

impl Applier {
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Applier> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Applier { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Resolve a shipped relative path under the root, rejecting
    /// absolute paths and any traversal component.
    fn target(&self, rel: &str) -> io::Result<PathBuf> {
        let rel_path = Path::new(rel);
        let safe = rel_path
            .components()
            .all(|c| matches!(c, Component::Normal(_)));
        if !safe || rel.is_empty() || rel.len() > MAX_PATH {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unsafe replicated path {rel:?}"),
            ));
        }
        let full = self.root.join(rel_path);
        if let Some(parent) = full.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(full)
    }

    /// Apply one replicated event. Idempotent at the state level: the
    /// run-store replay that eventually consumes these files tolerates
    /// duplicate records by construction.
    pub fn apply(&self, event: &ReplEvent) -> io::Result<()> {
        match event {
            ReplEvent::FileSnapshot { path, data } => {
                let target = self.target(path)?;
                write_file_atomic(&target, data)?;
                if lisa_telemetry::metrics_enabled() {
                    lisa_telemetry::counter_add("repl.files_applied", 1);
                    lisa_telemetry::counter_add("repl.bytes_applied", data.len() as u64);
                }
            }
            ReplEvent::Append { path, record } => {
                let target = self.target(path)?;
                let mut f = OpenOptions::new().create(true).append(true).open(&target)?;
                f.write_all(&frame(record))?;
                f.sync_data()?;
                if lisa_telemetry::metrics_enabled() {
                    lisa_telemetry::counter_add("repl.records_applied", 1);
                    lisa_telemetry::counter_add(
                        "repl.bytes_applied",
                        (FRAME_HEADER + record.len()) as u64,
                    );
                }
            }
            ReplEvent::Reset { path } => {
                let target = self.target(path)?;
                let f = OpenOptions::new().create(true).write(true).truncate(true).open(&target)?;
                f.sync_data()?;
                if lisa_telemetry::metrics_enabled() {
                    lisa_telemetry::counter_add("repl.resets_applied", 1);
                }
            }
        }
        if lisa_telemetry::metrics_enabled() {
            lisa_telemetry::counter_add("repl.frames_applied", 1);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lisa-repl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn wire_roundtrip_every_tag() {
        let wires = [
            Wire::Event {
                seq: 7,
                event: ReplEvent::FileSnapshot {
                    path: "job/wal.log".into(),
                    data: vec![0, 1, 2, 255],
                },
            },
            Wire::Event {
                seq: 8,
                event: ReplEvent::Append { path: "job/wal.log".into(), record: b"rec".to_vec() },
            },
            Wire::Event { seq: 9, event: ReplEvent::Reset { path: "job/wal.log".into() } },
            Wire::Heartbeat { seq: 10, bytes: 12345 },
            Wire::SyncDone { seq: 11, bytes: 99 },
        ];
        for w in &wires {
            assert_eq!(&decode_wire(&encode_wire(w)).expect("decode"), w);
        }
    }

    #[test]
    fn decode_rejects_truncations_and_trailing_garbage() {
        let full = encode_wire(&Wire::Event {
            seq: 1,
            event: ReplEvent::Append { path: "a/wal.log".into(), record: b"payload".to_vec() },
        });
        for cut in 0..full.len() {
            assert!(decode_wire(&full[..cut]).is_err(), "prefix of {cut} bytes must not decode");
        }
        let mut padded = full.clone();
        padded.push(0);
        assert!(decode_wire(&padded).is_err(), "trailing garbage must not decode");
        assert!(decode_wire(&[99]).is_err(), "unknown tag");
    }

    #[test]
    fn hostile_length_prefix_never_allocates_or_panics() {
        let mut dec = FrameDecoder::new();
        // A frame header declaring a 4 GiB payload: rejected immediately,
        // before the decoder would ever try to buffer it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        dec.feed(&bytes);
        assert!(dec.next_frame().is_err());
        assert_eq!(dec.rejected, 1);

        // Just over the cap is equally rejected.
        let mut dec = FrameDecoder::new();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_WIRE_FRAME + 1).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        dec.feed(&bytes);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn decoder_handles_arbitrary_chunking() {
        let payloads: Vec<Vec<u8>> = (0..5)
            .map(|i| {
                encode_wire(&Wire::Event {
                    seq: i,
                    event: ReplEvent::Append {
                        path: "d/wal.log".into(),
                        record: format!("record-{i}").into_bytes(),
                    },
                })
            })
            .collect();
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&frame(p));
        }
        // Feed in awkward 3-byte chunks: every frame still comes out.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for chunk in stream.chunks(3) {
            dec.feed(chunk);
            while let Some(p) = dec.next_frame().expect("clean stream") {
                out.push(p);
            }
        }
        assert_eq!(out, payloads);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn corrupt_frame_is_rejected_not_applied() {
        let payload = encode_wire(&Wire::Event {
            seq: 1,
            event: ReplEvent::Append { path: "x/wal.log".into(), record: b"good".to_vec() },
        });
        let mut bytes = frame(&payload);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(dec.next_frame().is_err(), "checksum mismatch must error");
        assert_eq!(dec.rejected, 1);
    }

    #[test]
    fn applier_refuses_traversal_and_absolute_paths() {
        let dir = tmpdir("traversal");
        let applier = Applier::new(&dir).expect("applier");
        for bad in ["../escape", "/etc/passwd", "a/../../b", ""] {
            let ev = ReplEvent::FileSnapshot { path: bad.into(), data: vec![1] };
            assert!(applier.apply(&ev).is_err(), "{bad:?} must be refused");
        }
        // A normal nested path is fine.
        let ev = ReplEvent::FileSnapshot { path: "job-1/wal.log".into(), data: vec![7] };
        applier.apply(&ev).expect("safe path applies");
        assert_eq!(std::fs::read(dir.join("job-1/wal.log")).expect("read"), vec![7]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bus_publishes_in_order_and_reports_gaps() {
        let dir = tmpdir("bus");
        let bus = ReplBus::with_retention(&dir, 4);
        for i in 0..3u8 {
            bus.publish_append(&dir.join("wal.log"), &[i]);
        }
        match bus.poll_after(0, Duration::from_millis(1)) {
            BusPoll::Frames(frames) => {
                assert_eq!(frames.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![1, 2, 3]);
            }
            other => panic!("expected frames, got {other:?}"),
        }
        // Overflow retention: position 0 now has a gap.
        for i in 0..6u8 {
            bus.publish_append(&dir.join("wal.log"), &[i]);
        }
        assert!(matches!(bus.poll_after(0, Duration::from_millis(1)), BusPoll::Gap));
        // But the most recent frames are still streamable.
        let (seq, _) = bus.position();
        assert!(matches!(
            bus.poll_after(seq, Duration::from_millis(1)),
            BusPoll::Idle { seq: s, .. } if s == seq
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutations_outside_the_root_are_not_replicated() {
        let dir = tmpdir("outside");
        let bus = ReplBus::new(&dir);
        bus.publish_append(Path::new("/somewhere/else/wal.log"), b"x");
        assert_eq!(bus.position().0, 0, "foreign path published nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_sync_ships_files_and_ends_with_sync_done() {
        let dir = tmpdir("sync");
        std::fs::create_dir_all(dir.join("job")).expect("mkdir");
        std::fs::write(dir.join("job/wal.log"), b"journal-bytes").expect("write");
        std::fs::write(dir.join("metrics.journal"), b"node-local").expect("write");
        std::fs::write(dir.join("job/x.tmp"), b"temp").expect("write");
        let bus = ReplBus::new(&dir);
        let (payloads, _) = bus.sync_payloads();
        let wires: Vec<Wire> =
            payloads.iter().map(|p| decode_wire(p).expect("decode")).collect();
        assert_eq!(wires.len(), 2, "one file + SyncDone, node-local files excluded: {wires:?}");
        assert!(matches!(
            &wires[0],
            Wire::Event { event: ReplEvent::FileSnapshot { path, data }, .. }
                if path == "job/wal.log" && data == b"journal-bytes"
        ));
        assert!(matches!(wires[1], Wire::SyncDone { .. }));

        // Applying the sync into a fresh root mirrors the file.
        let froot = tmpdir("sync-f");
        let applier = Applier::new(&froot).expect("applier");
        for w in &wires {
            if let Wire::Event { event, .. } = w {
                applier.apply(event).expect("apply");
            }
        }
        assert_eq!(
            std::fs::read(froot.join("job/wal.log")).expect("read"),
            b"journal-bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&froot);
    }
}
