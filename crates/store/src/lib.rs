//! # lisa-store
//!
//! Durable state for the enforcement gate. The paper's end state is LISA
//! as a *persistent* regression firewall — every change is gated on the
//! full rule set — which only works if a gate run's settled verdicts
//! survive crashes, partial writes, and restarts without redoing hours
//! of concolic work. A run's one durable artifact is its journal,
//! `wal.log`; rules always come from a rules file, never from the store.
//!
//! - [`journal`] — a checksummed, append-only write-ahead journal with
//!   torn-tail truncation and per-record quarantine of corrupt frames.
//!   I/O faults are injectable at every seam via [`IoFaults`].
//! - [`event`] — the run's event vocabulary (run started, check
//!   started/finished, run finished) and its self-describing text codec.
//! - [`run`] — per-run recovery: replaying the journal yields the set of
//!   already-settled rule verdicts, so a killed gate run resumes without
//!   re-checking them.
//! - [`codec`] — the escaped `key=value` field codec all records share.
//! - [`repl`] — leader→follower journal shipping: a publisher bus fed by
//!   the store's mutation seams, a CRC'd wire frame codec (same envelope
//!   as the on-disk journal), and a path-confined applier that mirrors
//!   the leader's state root byte-for-byte onto a warm spare.
//!
//! The crate is deliberately independent of the pipeline: it stores
//! opaque verdict fingerprints, not reports, so corruption in the store
//! can never fabricate a gate decision — at worst a rule is re-checked.

#![forbid(unsafe_code)]

pub mod codec;
pub mod event;
pub mod fingerprints;
pub mod journal;
pub mod repl;
pub mod run;

pub use event::{GateEvent, RuleOutcome};
pub use fingerprints::FingerprintFile;
pub use journal::{scan, write_file_atomic, IoFault, IoFaults, Journal, OpenReport, Scan};
pub use repl::{
    decode_wire, encode_wire, Applier, BusPoll, FrameDecoder, ReplBus, ReplEvent, StreamFault,
    StreamFaults, Wire, MAX_WIRE_FRAME, REPL_VERSION,
};
pub use run::{RunState, RunStore};

use std::fmt;

/// Errors from the durable store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// A record decoded to something the event vocabulary rejects.
    Codec(String),
    /// The caller's cancellation token fired; the run stopped at a rule
    /// boundary and its partial journal remains valid for resume.
    Cancelled,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::Codec(d) => write!(f, "store codec: {d}"),
            StoreError::Cancelled => write!(f, "run cancelled at a rule boundary"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}
