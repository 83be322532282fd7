//! A counter of journal mutations under one state root.
//!
//! [`ReplBus`] exists only for lisabench's serve replay, which reads its
//! position as `repl.frames_per_job`. Nothing in the product creates
//! one; ROADMAP item 2 deletes it together with lisabench's `Replayer`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts the journal appends and resets a [`crate::RunStore`] makes
/// under `root`. Mutations outside the root are not counted.
pub struct ReplBus {
    root: PathBuf,
    events: AtomicU64,
    bytes: AtomicU64,
}

impl ReplBus {
    pub fn new(root: impl Into<PathBuf>) -> Arc<ReplBus> {
        Arc::new(ReplBus { root: root.into(), events: AtomicU64::new(0), bytes: AtomicU64::new(0) })
    }

    /// Events counted so far, and the record bytes they appended.
    pub fn position(&self) -> (u64, u64) {
        (self.events.load(Ordering::Relaxed), self.bytes.load(Ordering::Relaxed))
    }

    /// Count one record appended to the journal at `path`.
    pub fn publish_append(&self, path: &Path, record: &[u8]) {
        if path.starts_with(&self.root) {
            self.events.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(record.len() as u64, Ordering::Relaxed);
        }
    }

    /// Count one reset of the journal at `path`.
    pub fn publish_reset(&self, path: &Path) {
        if path.starts_with(&self.root) {
            self.events.fetch_add(1, Ordering::Relaxed);
        }
    }
}
