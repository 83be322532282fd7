//! Per-run recovery state: journal → the set of settled verdicts a
//! resumed gate run does not need to recompute.
//!
//! A run's journal holds `run-started`, two records per checked rule and
//! `run-finished`, so it is the run's one durable artifact and there is
//! nothing to compact. A rule checked in degraded mode (under a gate
//! deadline) is checked again by the next run over the journal, which
//! appends its two records once more; the new `RuleCheckFinished`
//! replaces the degraded one.
//!
//! Invariants (DESIGN.md §10):
//!
//! 1. **Prefix durability** — after a crash, the recovered state equals
//!    replaying some prefix of the events the run emitted (torn tails
//!    only ever drop a suffix; quarantine only drops individual records,
//!    which at worst re-checks a rule).
//! 2. **Replay idempotence** — applying a journal twice yields the same
//!    state as once (`RuleCheckFinished` replaces by rule id).
//! 3. **Key isolation** — a journal written under a different run key
//!    (other version, rule set, configuration or fault plan) is
//!    archived, never replayed.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::event::{GateEvent, RuleOutcome};
use crate::journal::{IoFaults, Journal};
use crate::repl::ReplBus;
use crate::StoreError;

/// Recovered state of one gate run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunState {
    pub run_key: Option<String>,
    /// Rules whose check began (a Started without a Finished marks work
    /// lost to the crash).
    pub started: Vec<String>,
    /// Settled outcomes in completion order, replace-in-place by rule id.
    pub finished: Vec<RuleOutcome>,
    /// Final decision, if the run completed.
    pub decision: Option<String>,
}

impl RunState {
    /// Apply one event. Idempotent: applying the same event again leaves
    /// the state unchanged.
    pub fn apply(&mut self, event: &GateEvent) {
        match event {
            GateEvent::RunStarted { run_key } => {
                if self.run_key.as_deref() != Some(run_key.as_str()) {
                    // A new run supersedes any previous state.
                    *self = RunState::default();
                    self.run_key = Some(run_key.clone());
                }
            }
            GateEvent::RuleCheckStarted { rule_id } => {
                if !self.started.contains(rule_id) {
                    self.started.push(rule_id.clone());
                }
            }
            GateEvent::RuleCheckFinished { outcome } => {
                match self.finished.iter_mut().find(|o| o.rule_id == outcome.rule_id) {
                    Some(slot) => *slot = outcome.clone(),
                    None => self.finished.push(outcome.clone()),
                }
            }
            GateEvent::RunFinished { decision } => {
                self.decision = Some(decision.clone());
            }
        }
    }

    /// Replay a sequence of raw record payloads; undecodable records are
    /// skipped (they can only force a re-check, never invent a verdict).
    pub fn replay<'a>(records: impl IntoIterator<Item = &'a [u8]>) -> RunState {
        let mut state = RunState::default();
        for payload in records {
            if let Ok(event) = GateEvent::decode(payload) {
                state.apply(&event);
            }
        }
        state
    }

    /// The settled outcome for `rule_id`, if its verdict was journaled.
    pub fn finished_outcome(&self, rule_id: &str) -> Option<&RuleOutcome> {
        self.finished.iter().find(|o| o.rule_id == rule_id)
    }
}

/// Durable store for one gate run: a write-ahead journal rooted at a
/// directory.
pub struct RunStore {
    dir: PathBuf,
    journal: Journal,
    /// Set false after the first append failure: the run continues in
    /// memory (availability over durability) and the caller is warned.
    journaling: bool,
    /// When attached, counts every append and reset (lisabench only).
    repl: Option<Arc<ReplBus>>,
    pub state: RunState,
    pub warnings: Vec<String>,
    /// Records recovered from the journal on open.
    pub recovered_records: usize,
}

impl RunStore {
    /// Write-ahead journal file name inside a run's state directory.
    pub const JOURNAL: &'static str = "wal.log";

    /// Open the store for `run_key`, replaying the journal. State
    /// journaled under a *different* key is archived (`*.stale`) and a
    /// fresh run is started.
    pub fn open(
        dir: impl Into<PathBuf>,
        run_key: &str,
        faults: Option<Arc<dyn IoFaults>>,
    ) -> Result<RunStore, StoreError> {
        RunStore::open_replicated(dir, run_key, faults, None)
    }

    /// [`RunStore::open`] with a [`ReplBus`] attached that counts every
    /// append and reset.
    pub fn open_replicated(
        dir: impl Into<PathBuf>,
        run_key: &str,
        faults: Option<Arc<dyn IoFaults>>,
        repl: Option<Arc<ReplBus>>,
    ) -> Result<RunStore, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (journal, report) = Journal::open(dir.join(Self::JOURNAL), faults)?;
        let state = RunState::replay(report.records.iter().map(Vec::as_slice));
        let mut store = RunStore {
            dir,
            journal,
            journaling: true,
            repl,
            state,
            warnings: Vec::new(),
            recovered_records: report.records.len(),
        };
        if report.quarantined > 0 {
            store
                .warnings
                .push(format!("journal: {} corrupt record(s) quarantined", report.quarantined));
        }
        if report.truncated_bytes > 0 {
            store
                .warnings
                .push(format!("journal: torn tail of {} byte(s) truncated", report.truncated_bytes));
        }

        if store.state.run_key.as_deref() != Some(run_key) {
            if store.state.run_key.is_some() {
                store.archive_stale()?;
                store.warnings.push(
                    "journal belonged to a different run (version, rules, configuration or \
                     fault plan); archived as .stale"
                        .to_string(),
                );
            }
            store.state = RunState::default();
            store.recovered_records = 0;
            store.append(&GateEvent::RunStarted { run_key: run_key.to_string() });
        }
        Ok(store)
    }

    fn archive_stale(&mut self) -> Result<(), StoreError> {
        let wal = self.dir.join(Self::JOURNAL);
        if let Ok(bytes) = std::fs::read(&wal) {
            if !bytes.is_empty() {
                let _ = std::fs::write(self.dir.join("wal.log.stale"), &bytes);
            }
        }
        self.journal.reset()?;
        if let Some(bus) = &self.repl {
            bus.publish_reset(&self.dir.join(Self::JOURNAL));
        }
        Ok(())
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True while appends are still reaching disk.
    pub fn durable(&self) -> bool {
        self.journaling
    }

    /// Apply an event to the in-memory state and journal it. An append
    /// failure downgrades the run to in-memory (warned, never fatal) —
    /// a gate that cannot journal must still return a decision.
    pub fn append(&mut self, event: &GateEvent) {
        self.state.apply(event);
        let encoded = event.encode();
        if self.journaling {
            if let Err(e) = self.journal.append(&encoded) {
                self.journaling = false;
                self.warnings.push(format!(
                    "journal append failed ({e}); continuing without durability"
                ));
            }
        }
        if let Some(bus) = &self.repl {
            bus.publish_append(&self.dir.join(Self::JOURNAL), &encoded);
        }
    }

    pub fn record_started(&mut self, rule_id: &str) {
        self.append(&GateEvent::RuleCheckStarted { rule_id: rule_id.to_string() });
    }

    pub fn record_finished(&mut self, outcome: RuleOutcome) {
        self.append(&GateEvent::RuleCheckFinished { outcome });
    }

    pub fn record_run_finished(&mut self, decision: &str) {
        self.append(&GateEvent::RunFinished { decision: decision.to_string() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lisa-run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn outcome(id: &str, violated: u64) -> RuleOutcome {
        RuleOutcome {
            rule_id: id.to_string(),
            fingerprint: format!("[label] chain for {id}\nviolated={violated}"),
            verified: 1,
            violated,
            not_covered: 0,
            engine_errors: 0,
            degraded: false,
            sanity_ok: true,
            retries: 0,
        }
    }

    #[test]
    fn resume_sees_settled_outcomes() {
        let dir = tmpdir("resume");
        {
            let mut store = RunStore::open(&dir, "key-1", None).expect("open");
            store.record_started("A");
            store.record_finished(outcome("A", 1));
            store.record_started("B");
            // Crash here: B started but never finished.
        }
        let store = RunStore::open(&dir, "key-1", None).expect("reopen");
        assert_eq!(store.state.finished_outcome("A"), Some(&outcome("A", 1)));
        assert_eq!(store.state.finished_outcome("B"), None);
        assert!(store.state.started.contains(&"B".to_string()));
        assert!(store.state.decision.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_run_key_archives_stale_state() {
        let dir = tmpdir("stale");
        {
            let mut store = RunStore::open(&dir, "key-old", None).expect("open");
            store.record_finished(outcome("A", 1));
        }
        let store = RunStore::open(&dir, "key-new", None).expect("reopen");
        assert_eq!(store.state.finished.len(), 0, "stale verdicts must not leak");
        assert_eq!(store.state.run_key.as_deref(), Some("key-new"));
        assert!(store.warnings.iter().any(|w| w.contains("different")), "{:?}", store.warnings);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_then_tail_equals_full_history() {
        let dir = tmpdir("reopen");
        {
            let mut store = RunStore::open(&dir, "k", None).expect("open");
            store.record_finished(outcome("A", 0));
            store.record_finished(outcome("B", 1));
        }
        {
            // A resumed process appends its tail to the same journal.
            let mut store = RunStore::open(&dir, "k", None).expect("resume");
            store.record_finished(outcome("B", 0)); // replaced in place
            store.record_finished(outcome("C", 2));
            store.record_run_finished("BLOCK");
        }
        let store = RunStore::open(&dir, "k", None).expect("reopen");
        assert_eq!(store.state.finished_outcome("A"), Some(&outcome("A", 0)));
        assert_eq!(store.state.finished_outcome("B"), Some(&outcome("B", 0)));
        assert_eq!(store.state.finished_outcome("C"), Some(&outcome("C", 2)));
        assert_eq!(store.state.decision.as_deref(), Some("BLOCK"));
        let ids: Vec<&str> = store.state.finished.iter().map(|o| o.rule_id.as_str()).collect();
        assert_eq!(ids, vec!["A", "B", "C"], "replace-in-place keeps order");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repl_bus_counts_appends_and_resets_under_its_root() {
        let root = tmpdir("bus");
        let bus = ReplBus::new(&root);
        {
            let mut store =
                RunStore::open_replicated(root.join("job-1"), "k", None, Some(bus.clone()))
                    .expect("open");
            store.record_started("A");
            store.record_finished(outcome("A", 0));
            store.record_run_finished("PASS");
        }
        assert_eq!(bus.position().0, 4, "open, started, finished, run-finished");

        // A stale key archives the old journal: one reset, then the new
        // run's RunStarted.
        RunStore::open_replicated(root.join("job-1"), "k2", None, Some(bus.clone()))
            .expect("reopen");
        assert_eq!(bus.position().0, 6);

        // A store outside the root is not counted.
        let outside = tmpdir("bus-outside");
        RunStore::open_replicated(&outside, "k", None, Some(bus.clone())).expect("outside");
        assert_eq!(bus.position().0, 6);
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&outside);
    }

    #[test]
    fn append_failure_degrades_but_never_aborts() {
        struct NoSpace;
        impl IoFaults for NoSpace {
            fn on_append(&self, _len: usize) -> Option<crate::IoFault> {
                Some(crate::IoFault::Enospc)
            }
        }
        let dir = tmpdir("enospc");
        let mut store =
            RunStore::open(&dir, "k", Some(Arc::new(NoSpace))).expect("open");
        store.record_finished(outcome("A", 1));
        assert!(!store.durable());
        assert!(store.warnings.iter().any(|w| w.contains("without durability")));
        // In-memory state is intact: the gate can still decide.
        assert!(store.state.finished_outcome("A").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
