//! Checksummed append-only write-ahead journal.
//!
//! Frame layout per record: `len: u32 LE | crc: u64 LE | payload`, where
//! `crc` is FNV-1a over the payload. Recovery semantics on open:
//!
//! - a **torn tail** (partial frame at EOF — the classic crash-mid-write
//!   shape) is truncated away;
//! - a **corrupt record** mid-file (a checksum mismatch — a bit flip in
//!   its payload or its header) is quarantined to `<journal>.quarantine`
//!   and skipped; the scan resynchronizes at the next intact frame, so
//!   the records around it replay normally;
//! - after any damage the journal is **compacted in place** (good records
//!   rewritten via write-temp + fsync + rename), so a second open sees a
//!   clean file and replay is idempotent.
//!
//! Every I/O seam consults an optional [`IoFaults`] hook, which is how
//! `lisa::faults` injects seeded torn writes, short reads, `ENOSPC`, and
//! fsync failures for the recovery experiments.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Frame header size: u32 length + u64 checksum.
pub const FRAME_HEADER: usize = 12;

/// Upper bound on one record; a length field above this is corruption,
/// not a real record.
pub const MAX_RECORD: u32 = 16 * 1024 * 1024;

/// FNV-1a over a byte slice — the journal's checksum. Not cryptographic;
/// it detects the torn writes and bit flips the fault model cares about.
pub use lisa_util::fnv1a;

/// A fault to apply at one I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Write only the first `keep` bytes of the frame, then fail — the
    /// crash-mid-write shape that leaves a torn tail.
    Torn { keep: usize },
    /// Fail the write without writing anything (`ENOSPC`).
    Enospc,
    /// On open, observe only the first `keep` bytes of the file.
    ShortRead { keep: usize },
    /// Fail the fsync; the bytes may or may not be durable.
    FsyncFail,
}

/// Injection hooks at the journal's I/O seams. The default implementation
/// injects nothing; `lisa::faults::DiskFaultInjector` provides the seeded
/// implementation used by tests and experiment E11.
pub trait IoFaults: Send + Sync {
    /// Consulted before appending a frame of `len` bytes.
    fn on_append(&self, _len: usize) -> Option<IoFault> {
        None
    }
    /// Consulted before fsyncing appended frames.
    fn on_sync(&self) -> Option<IoFault> {
        None
    }
    /// Consulted after reading `len` journal bytes on open.
    fn on_open_read(&self, _len: usize) -> Option<IoFault> {
        None
    }
}

/// Result of scanning raw journal bytes (pure; no filesystem access).
#[derive(Debug, Default)]
pub struct Scan {
    /// Payloads of intact records, in order.
    pub records: Vec<Vec<u8>>,
    /// Byte offset just past each intact record — the crash boundaries
    /// experiment E11 kills at.
    pub boundaries: Vec<u64>,
    /// Raw frames whose checksum failed (quarantine candidates).
    pub corrupt: Vec<Vec<u8>>,
    /// Trailing bytes that do not form a complete frame.
    pub torn_bytes: usize,
}

/// Scan `bytes` as a journal. A damaged frame is collected as corrupt
/// and the scan resynchronizes at the next intact frame, so a flipped
/// length byte costs its own record, not every record after it. Damage
/// that no intact frame follows is a torn tail, unless its header still
/// frames a complete (corrupt) record.
pub fn scan(bytes: &[u8]) -> Scan {
    let mut out = Scan::default();
    let mut off = 0usize;
    while off < bytes.len() {
        if let Some(len) = intact_frame(bytes, off) {
            let frame_end = off + FRAME_HEADER + len;
            out.records.push(bytes[off + FRAME_HEADER..frame_end].to_vec());
            // Boundaries are offsets into the *compacted* stream of good
            // records, so they stay meaningful after quarantine rewrites.
            let prev = out.boundaries.last().copied().unwrap_or(0);
            out.boundaries.push(prev + (FRAME_HEADER + len) as u64);
            off = frame_end;
            continue;
        }
        let resync = (off + 1..bytes.len()).find(|&at| intact_frame(bytes, at).is_some());
        let end = resync.or_else(|| framed_end(bytes, off));
        match end {
            Some(end) => {
                out.corrupt.push(bytes[off..end].to_vec());
                off = end;
            }
            None => {
                // Garbage length or frame runs past EOF: everything from
                // here is a torn tail.
                out.torn_bytes = bytes.len() - off;
                break;
            }
        }
    }
    out
}

/// The end of the frame whose header starts at `off`, when the header
/// holds a plausible length and the frame fits in `bytes`.
fn framed_end(bytes: &[u8], off: usize) -> Option<usize> {
    let header = bytes.get(off..off + FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let end = off + FRAME_HEADER + len as usize;
    (len <= MAX_RECORD && end <= bytes.len()).then_some(end)
}

/// The payload length of the intact frame starting at `off`, if one does:
/// it fits in `bytes` and its payload matches its checksum.
fn intact_frame(bytes: &[u8], off: usize) -> Option<usize> {
    let end = framed_end(bytes, off)?;
    let crc = u64::from_le_bytes(bytes[off + 4..off + FRAME_HEADER].try_into().expect("8 bytes"));
    (fnv1a(&bytes[off + FRAME_HEADER..end]) == crc).then_some(end - off - FRAME_HEADER)
}

/// Encode one frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// What `Journal::open` found and repaired.
#[derive(Debug, Default)]
pub struct OpenReport {
    /// Replayable record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Records quarantined to the side file on this open.
    pub quarantined: usize,
    /// Torn-tail bytes truncated on this open.
    pub truncated_bytes: usize,
}

/// The append-only journal.
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Logical end of the last fully appended frame; failed appends
    /// attempt to restore the file to this length.
    good_end: u64,
    faults: Option<Arc<dyn IoFaults>>,
}

impl Journal {
    /// Open (creating if absent), replaying and repairing existing
    /// contents: torn tails truncated, corrupt records quarantined, and
    /// the file compacted if any damage was found.
    pub fn open(
        path: impl Into<PathBuf>,
        faults: Option<Arc<dyn IoFaults>>,
    ) -> io::Result<(Journal, OpenReport)> {
        let path = path.into();
        let mut span = lisa_telemetry::span_with(
            "store.recover",
            path.file_name().and_then(|n| n.to_str()).unwrap_or(""),
        );
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        if let Some(inj) = &faults {
            if let Some(IoFault::ShortRead { keep }) = inj.on_open_read(bytes.len()) {
                bytes.truncate(keep);
            }
        }
        let scanned = scan(&bytes);
        let damaged = !scanned.corrupt.is_empty() || scanned.torn_bytes > 0;
        let quarantined = scanned.corrupt.len();
        if !scanned.corrupt.is_empty() {
            let mut q = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path.with_extension("quarantine"))?;
            for bad in &scanned.corrupt {
                q.write_all(bad)?;
            }
            q.sync_data()?;
        }
        if damaged {
            // Compact: rewrite only the good records atomically so the
            // next open replays cleanly with no further repair.
            let mut clean = Vec::new();
            for r in &scanned.records {
                clean.extend_from_slice(&frame(r));
            }
            write_file_atomic(&path, &clean)?;
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        let good_end = file.seek(SeekFrom::End(0))?;
        span.arg("records", scanned.records.len() as u64);
        span.arg("quarantined", quarantined as u64);
        span.arg("torn_bytes", scanned.torn_bytes as u64);
        span.arg("compacted", u64::from(damaged));
        if lisa_telemetry::metrics_enabled() {
            lisa_telemetry::counter_add("store.recovered_records", scanned.records.len() as u64);
            lisa_telemetry::counter_add("store.quarantined_records", quarantined as u64);
            lisa_telemetry::counter_add("store.torn_bytes_truncated", scanned.torn_bytes as u64);
            if damaged {
                lisa_telemetry::counter_add("store.compactions", 1);
            }
        }
        let journal = Journal { path, file, good_end, faults };
        Ok((
            journal,
            OpenReport {
                records: scanned.records,
                quarantined,
                truncated_bytes: scanned.torn_bytes,
            },
        ))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record durably (write + fsync). On failure the journal
    /// tries to restore itself to the last good frame boundary; if even
    /// that fails, the torn tail is repaired on the next open.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let span = lisa_telemetry::span("store.append");
        let result = self.append_inner(payload);
        drop(span);
        lisa_telemetry::counter_add("store.appends", 1);
        match &result {
            Ok(()) => lisa_telemetry::counter_add(
                "store.bytes_appended",
                (FRAME_HEADER + payload.len()) as u64,
            ),
            Err(_) => lisa_telemetry::counter_add("store.append_failures", 1),
        }
        result
    }

    fn append_inner(&mut self, payload: &[u8]) -> io::Result<()> {
        let frame = frame(payload);
        if let Some(inj) = &self.faults {
            match inj.on_append(frame.len()) {
                Some(IoFault::Torn { keep }) => {
                    let keep = keep.min(frame.len().saturating_sub(1));
                    let _ = self.file.write_all(&frame[..keep]);
                    let _ = self.file.sync_data();
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "torn write (injected)",
                    ));
                }
                Some(IoFault::Enospc) => {
                    return Err(io::Error::new(
                        io::ErrorKind::StorageFull,
                        "no space left on device (injected)",
                    ));
                }
                _ => {}
            }
        }
        if let Err(e) = self.file.write_all(&frame) {
            let _ = self.file.set_len(self.good_end);
            return Err(e);
        }
        if let Some(inj) = &self.faults {
            if inj.on_sync() == Some(IoFault::FsyncFail) {
                // The bytes are written but durability is unknown; count
                // the frame as good in memory — recovery tolerates either
                // outcome after a crash.
                self.good_end += frame.len() as u64;
                return Err(io::Error::other("fsync failed (injected)"));
            }
        }
        {
            let _fsync = lisa_telemetry::span("store.fsync");
            self.file.sync_data()?;
        }
        lisa_telemetry::counter_add("store.fsyncs", 1);
        self.good_end += frame.len() as u64;
        Ok(())
    }

    /// Discard all records (used when a run's stale journal is archived).
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.good_end = 0;
        Ok(())
    }
}

/// Write `payload` to `path` atomically as one checksummed frame:
/// write-temp + fsync + rename, so readers observe either the old
/// file or the new one, never a partial write.
pub fn write_atomic(path: &Path, payload: &[u8]) -> io::Result<()> {
    write_file_atomic(path, &frame(payload))
}

/// Write raw `bytes` to `path` atomically (write-temp + fsync + rename),
/// with no framing added. Used by compaction, where the bytes being
/// installed are already a framed journal.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // Unique temp name per write: two files of one directory, or two
    // processes writing the same file, must never share a `.tmp` name —
    // one writer would clobber the other's half-written frame and rename
    // garbage into place.
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("store");
    let tmp = path.with_file_name(format!(
        "{file_name}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let written = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written?;
    // Make the rename itself durable where the platform allows opening
    // directories; failure to sync the directory is not fatal.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read a file written by [`write_atomic`]. Returns `None` when the file
/// is absent *or* fails its checksum — a corrupt file is ignored, never
/// trusted.
pub fn read_atomic(path: &Path) -> Option<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path).ok()?.read_to_end(&mut bytes).ok()?;
    let scanned = scan(&bytes);
    if scanned.records.len() == 1 && scanned.corrupt.is_empty() && scanned.torn_bytes == 0 {
        scanned.records.into_iter().next()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lisa-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal");
        {
            let (mut j, report) = Journal::open(&path, None).expect("open");
            assert!(report.records.is_empty());
            for i in 0..10u32 {
                j.append(format!("record-{i}").as_bytes()).expect("append");
            }
        }
        let (_, report) = Journal::open(&path, None).expect("reopen");
        assert_eq!(report.records.len(), 10);
        assert_eq!(report.records[3], b"record-3");
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("wal");
        {
            let (mut j, _) = Journal::open(&path, None).expect("open");
            j.append(b"alpha").expect("append");
            j.append(b"beta").expect("append");
        }
        // Simulate a crash mid-write: half a frame dangling at the tail.
        let partial = &frame(b"gamma")[..7];
        let mut raw = std::fs::read(&path).expect("read");
        raw.extend_from_slice(partial);
        std::fs::write(&path, &raw).expect("write");

        let (_, report) = Journal::open(&path, None).expect("reopen");
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.truncated_bytes, 7);
        // The repair is persistent: a third open sees a clean file.
        let (_, report) = Journal::open(&path, None).expect("re-reopen");
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_is_quarantined_and_neighbors_survive() {
        let dir = tmpdir("quarantine");
        let path = dir.join("wal");
        {
            let (mut j, _) = Journal::open(&path, None).expect("open");
            for payload in [b"first".as_slice(), b"second", b"third"] {
                j.append(payload).expect("append");
            }
        }
        // Flip a payload byte of the middle record.
        let mut raw = std::fs::read(&path).expect("read");
        let mid = frame(b"first").len() + FRAME_HEADER + 2;
        raw[mid] ^= 0xff;
        std::fs::write(&path, &raw).expect("write");

        let (_, report) = Journal::open(&path, None).expect("reopen");
        assert_eq!(report.records, vec![b"first".to_vec(), b"third".to_vec()]);
        assert_eq!(report.quarantined, 1);
        assert!(path.with_extension("quarantine").exists());
        // Compaction happened: a further open is clean and idempotent.
        let (_, report) = Journal::open(&path, None).expect("re-reopen");
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_length_prefix_is_a_torn_tail_not_an_allocation() {
        // Bytes read from disk may be corrupt: a damaged u32 length must
        // be rejected before any allocation.
        let mut bytes = frame(b"good");
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(b"whatever follows the lying header");
        let s = scan(&bytes);
        assert_eq!(s.records, vec![b"good".to_vec()]);
        assert_eq!(s.torn_bytes, bytes.len() - frame(b"good").len());
        assert!(s.corrupt.is_empty());

        // Length just over MAX_RECORD: same treatment, even if the buffer
        // claims to hold it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_RECORD + 1).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let s = scan(&bytes);
        assert!(s.records.is_empty());
        assert_eq!(s.torn_bytes, bytes.len());

        // Length exceeding the remaining buffer (frame runs past EOF).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 10]);
        let s = scan(&bytes);
        assert!(s.records.is_empty());
        assert_eq!(s.torn_bytes, bytes.len());

        // And a Journal::open over such a file repairs it durably.
        let dir = tmpdir("hostile-len");
        let path = dir.join("wal");
        let mut raw = frame(b"kept");
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.extend_from_slice(&[0xAB; 20]);
        std::fs::write(&path, &raw).expect("write");
        let (_, report) = Journal::open(&path, None).expect("open");
        assert_eq!(report.records, vec![b"kept".to_vec()]);
        assert!(report.truncated_bytes > 0);
        let (_, report) = Journal::open(&path, None).expect("reopen");
        assert_eq!(report.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_length_byte_costs_only_its_own_record() {
        let mut bytes = Vec::new();
        for payload in [b"first".as_slice(), b"second-record", b"third", b"fourth"] {
            bytes.extend_from_slice(&frame(payload));
        }
        // Grow the second record's length so its frame swallows the
        // start of the third: the scan must not trust it.
        let second = frame(b"first").len();
        bytes[second] ^= 0x41;
        let s = scan(&bytes);
        assert_eq!(s.records, vec![b"first".to_vec(), b"third".to_vec(), b"fourth".to_vec()]);
        assert_eq!(s.corrupt, vec![bytes[second..second + frame(b"second-record").len()].to_vec()]);
        assert_eq!(s.torn_bytes, 0);
    }

    #[test]
    fn scan_reports_boundaries() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&frame(b"a"));
        bytes.extend_from_slice(&frame(b"bb"));
        let s = scan(&bytes);
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.boundaries, vec![13, 27]);
        assert_eq!(s.torn_bytes, 0);
    }

    #[test]
    fn snapshot_roundtrip_and_corruption_rejection() {
        let dir = tmpdir("snap");
        let path = dir.join("atomic.bin");
        write_atomic(&path, b"snapshot-state").expect("write");
        assert_eq!(read_atomic(&path).as_deref(), Some(b"snapshot-state".as_slice()));
        // Corrupt one byte: the snapshot must be ignored, not trusted.
        let mut raw = std::fs::read(&path).expect("read");
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        std::fs::write(&path, &raw).expect("write");
        assert_eq!(read_atomic(&path), None);
        assert_eq!(read_atomic(&dir.join("absent.snap")), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    struct AlwaysTorn;
    impl IoFaults for AlwaysTorn {
        fn on_append(&self, len: usize) -> Option<IoFault> {
            Some(IoFault::Torn { keep: len / 2 })
        }
    }

    #[test]
    fn atomic_writes_use_unique_temp_names_and_clean_up() {
        let dir = tmpdir("tmpnames");
        // Same-directory snapshot + journal targets must never share a
        // temp file name (they used to both map to `rules.tmp`).
        write_atomic(&dir.join("rules.snap"), b"snapshot").expect("snap");
        write_atomic(&dir.join("rules.log"), b"compacted").expect("log");
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .expect("read_dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        assert_eq!(read_atomic(&dir.join("rules.snap")).as_deref(), Some(b"snapshot".as_slice()));
        assert_eq!(read_atomic(&dir.join("rules.log")).as_deref(), Some(b"compacted".as_slice()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_write_leaves_recoverable_journal() {
        let dir = tmpdir("fault-torn");
        let path = dir.join("wal");
        {
            let (mut j, _) = Journal::open(&path, None).expect("open");
            j.append(b"durable").expect("append");
        }
        {
            let (mut j, _) =
                Journal::open(&path, Some(Arc::new(AlwaysTorn))).expect("open faulted");
            assert!(j.append(b"lost-to-the-torn-write").is_err());
        }
        let (_, report) = Journal::open(&path, None).expect("recover");
        assert_eq!(report.records, vec![b"durable".to_vec()]);
        assert!(report.truncated_bytes > 0, "the torn half-frame was dropped");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
