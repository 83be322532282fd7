//! Durable gate runs and the supervised `lisa serve` daemon.
//!
//! Two layers live here, both built on `lisa-store`:
//!
//! - [`gate_durable`] — a gate run whose progress is journaled. It is
//!   one call into the gate engine; settled verdicts are
//!   appended to the write-ahead journal in **registry order** at the
//!   merge frontier (deterministic journal-record boundaries are what
//!   make the E11 kill-matrix meaningful), and a resumed run reuses
//!   journaled verdicts instead of re-running concolic exploration. The
//!   recovery invariant:
//!   a run killed at *any* journal-record boundary and resumed produces
//!   a byte-identical final verdict artifact ([`DurableGateReport::verdicts_text`]).
//! - [`serve`] — a daemon accepting gate jobs as newline-delimited JSON
//!   over a unix socket and (with `--listen`) a TCP listener, processed
//!   by a supervised worker pool: panicked workers are reaped and
//!   respawned, stalled workers (no heartbeat for the tenant's
//!   `job_timeout`) abandoned, and their jobs dead-lettered at once,
//!   with bounded-queue backpressure and graceful drain on shutdown.
//!   Two isolation rules keep recovery honest: every respawned worker
//!   gets a **fresh slot** (an abandoned thread can never take — or
//!   answer — a job it does not own), and jobs sharing a state
//!   directory are **serialized** (a resubmitted job never races its
//!   abandoned predecessor on the same journal).
//!
//! The daemon is **multi-tenant**: a gate request may carry a `tenant`
//! field routing it to that tenant's bounded queue and version-scoped
//! cache. Dequeue is weighted-fair (stride scheduling
//! over `--tenants` weights via [`crate::tenant::FairQueues`]), and
//! admission control sheds explicitly — a saturated tenant or global
//! queue answers `{"status":"shed","retry_after_ms":...}` immediately
//! instead of blocking or dropping the connection.
//!
//! Both listeners — the unix socket and `--listen` — are multiplexed by
//! one hand-rolled `poll(2)` readiness loop ([`crate::netloop`]) on the
//! supervisor thread. A request reaches a dispatcher only once its line
//! is complete, so idle clients cost no threads and no client can stall
//! supervision. The unix socket serves every op; `--listen` refuses any
//! gate request carrying a `chaos` drill.
//!
//! The daemon runs on one node. Its availability rests on two tactics:
//! a daemon restarted on the same state root resumes every job from its
//! journal, so no acknowledged verdict is lost, and a client whose gate
//! failed simply submits it again (Retry). The client is the one retry
//! layer: a rule check is a pure function of its inputs, so the daemon
//! never re-runs a job that failed in process.
//!
//! Parallel throughput comes from the worker pool across jobs and, with
//! `DurableOptions::workers`, from checking a job's rules in parallel.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lisa_concolic::{discover_tests, SystemVersion};
use lisa_lang::Program;
use lisa_oracle::{author_rule, SemanticRule};
use lisa_store::journal::{fnv1a, read_atomic, write_atomic};
use lisa_store::repl::ReplBus;
use lisa_store::{scan, IoFaults, RuleOutcome, RunState, RunStore, StoreError};
use lisa_telemetry::Histogram;
use lisa_util::Fnv1a;

use crate::enforce::{
    count_decision, decide, enforce_impl, FailMode, GateDecision, GateOptions, RuleRegistry,
    SlotHook,
};
use crate::faults::FAULT_PANIC_PREFIX;
use crate::gate::GateCache;
use crate::json::{escape, Json};
use crate::netloop::{raise_fd_limit, LineGate, Listener, Port, Pumped, Stream};
use crate::pipeline::{config_hash, PipelineConfig, TestSelection};
use crate::tenant::{
    valid_tenant, Admitted, FairQueues, TenantSpec, MAX_JOB_ID_LEN,
};
use crate::verdict::RuleReport;

/// NDJSON protocol version the serve daemon speaks. Requests may carry a
/// `"v"` field; a missing `v` is treated as version 1 (the field
/// predates nothing — v1 is the first and only version), while any other
/// value is a structured bad-request.
pub const PROTOCOL_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// System / rules loading (shared by the CLI and serve jobs)
// ---------------------------------------------------------------------------

/// Load every `.sir` file under `dir` (sorted, non-recursive) into one
/// program; discover tests by prefix. Traced as `lang.load`, with the
/// parse and the type check as its `lang.parse` and `lang.check`
/// children; the rest of the span is reading the directory and files.
pub fn load_system(dir: &str, test_prefix: &str) -> Result<SystemVersion, String> {
    let _load = lisa_telemetry::span("lang.load");
    let dir = Path::new(dir);
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sir"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .sir files in {}", dir.display()));
    }
    let mut texts = Vec::with_capacity(files.len());
    for f in &files {
        texts.push(std::fs::read_to_string(f).map_err(|e| format!("read {}: {e}", f.display()))?);
    }
    // Module names borrow the file stems; the parser copies each once.
    let refs: Vec<(&str, &str)> = files
        .iter()
        .zip(&texts)
        .map(|(f, t)| (f.file_stem().and_then(|s| s.to_str()).unwrap_or("module"), t.as_str()))
        .collect();
    let program = {
        let _parse = lisa_telemetry::span("lang.parse");
        Program::parse(&refs).map_err(|e| e.to_string())?
    };
    let errors = {
        let _check = lisa_telemetry::span("lang.check");
        lisa_lang::check_program(&program)
    };
    if !errors.is_empty() {
        let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        return Err(format!("type errors:\n  {}", msgs.join("\n  ")));
    }
    let tests = discover_tests(&program, test_prefix);
    let label = dir.file_name().and_then(|s| s.to_str()).unwrap_or("system").to_string();
    Ok(SystemVersion::new(label, program, tests))
}

/// Parse a rules file of authoring-template sentences.
pub fn load_rules(path: &str) -> Result<Vec<SemanticRule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut rules = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let rule = author_rule(&format!("rule-{}", lineno + 1), line)
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        rules.push(rule);
    }
    if rules.is_empty() {
        return Err(format!("{path}: no rules"));
    }
    Ok(rules)
}

// ---------------------------------------------------------------------------
// Durable gate runs
// ---------------------------------------------------------------------------

/// Fingerprint the `(version, rule set)` a journal belongs to: the
/// version label, its whole-version fingerprint
/// ([`SystemVersion::fingerprint`]: program, tests, summaries and
/// entries) and each rule. A stale journal must never donate verdicts
/// to a run it does not describe.
pub fn run_key(version: &SystemVersion, rules: &[SemanticRule]) -> String {
    let mut h = Fnv1a::new();
    h.part_u64(version.fingerprint());
    for r in rules {
        h.part(r.id.as_bytes()).part(r.description.as_bytes());
        h.part_display(&r.target).part(r.condition_src.as_bytes());
    }
    format!("{}-{:016x}", version.label, h.finish())
}

/// The key a durable run's journal is opened under: [`run_key`] plus the
/// pipeline configuration's hash (the one the rule-report memo keys by)
/// and the fault plan, so a run under another configuration or fault
/// plan never resumes this one's verdicts.
fn durable_key(
    version: &SystemVersion,
    rules: &[SemanticRule],
    config: &PipelineConfig,
    gate: &GateOptions,
) -> String {
    let mut h = Fnv1a::new();
    h.part_u64(config_hash(config));
    if let Some(faults) = &gate.faults {
        faults.plan().hash_into(&mut h);
    }
    format!("{}-{:016x}", run_key(version, rules), h.finish())
}

/// Canonical verdict fingerprint for one rule report: chain verdicts and
/// rendered paths plus fold counts — everything decision-relevant,
/// nothing timing-dependent. This is the byte-comparable artifact the
/// crash-recovery invariant is stated over.
pub fn fingerprint(r: &RuleReport) -> String {
    let mut s = String::new();
    for c in r.chains.iter() {
        s.push_str(&format!("[{}] {}\n", c.verdict.label(), c.rendered));
    }
    s.push_str(&format!(
        "verified={} violated={} off_tree={} not_covered={} engine_errors={} sanity_ok={}",
        r.verified_count(),
        r.violated_count(),
        r.off_tree_violations.len(),
        r.not_covered_count(),
        r.engine_error_count(),
        r.sanity_ok,
    ));
    s
}

/// Condense a rule report into the journaled outcome.
pub fn outcome_of(r: &RuleReport) -> RuleOutcome {
    RuleOutcome {
        rule_id: r.rule_id.clone(),
        fingerprint: fingerprint(r),
        verified: r.verified_count() as u64,
        violated: (r.violated_count() + r.off_tree_violations.len()) as u64,
        not_covered: r.not_covered_count() as u64,
        engine_errors: r.engine_error_count() as u64,
        unchecked: r.unchecked,
        sanity_ok: r.sanity_ok,
    }
}

/// Where and how a durable run persists its state.
pub struct DurableOptions {
    /// Directory holding the run's journal.
    pub state_dir: PathBuf,
    /// Worker width for the run (0 = auto): the rules left to check
    /// spread across up to this many workers, one task per rule. The
    /// journal stays in registry order at any width — a rule is appended
    /// once every earlier rule settled.
    pub workers: usize,
    /// Disk fault injection at the store's I/O seams (E11, tests).
    pub disk_faults: Option<Arc<dyn IoFaults>>,
    /// Liveness heartbeat: called once per rule (reused or fresh) as the
    /// journal frontier passes it, possibly on a worker thread. The serve
    /// supervisor uses it to tell a slow-but-progressing job from a
    /// wedged one.
    pub progress: Option<Arc<dyn Fn() + Send + Sync>>,
    /// Cooperative cancellation, checked as each rule task dequeues and
    /// before the journal frontier starts a rule. When it fires the run
    /// returns [`StoreError::Cancelled`] without touching
    /// the store further; the journal written so far stays valid for
    /// resume.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Version-scoped cache shared with the in-memory gate machinery:
    /// rule checks read and fill its rule-report memo. Nothing of it is
    /// persisted beside the journal.
    pub cache: Option<Arc<GateCache>>,
    /// Counts this run's journal appends and resets. Only lisabench's
    /// serve replay sets it; the daemon never does.
    pub repl: Option<Arc<ReplBus>>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            state_dir: PathBuf::new(),
            // Sequential by default: durable runs are usually one job of
            // many inside `lisa serve`, which already parallelizes across
            // jobs. Callers opt into fan-out explicitly.
            workers: 1,
            disk_faults: None,
            progress: None,
            cancel: None,
            cache: None,
            repl: None,
        }
    }
}

/// Result of a durable (journaled, resumable) gate run.
#[derive(Debug)]
pub struct DurableGateReport {
    pub version: String,
    pub run_key: String,
    pub decision: GateDecision,
    pub fail_mode: FailMode,
    /// Outcomes in registry order, one per rule.
    pub outcomes: Vec<RuleOutcome>,
    /// Verdicts reused from the journal (not re-executed).
    pub reused: usize,
    /// Verdicts settled by this process: checked by the engine (possibly
    /// answered by the rule-report memo) and journaled.
    pub fresh: usize,
    /// False if journaling was disabled mid-run (e.g. ENOSPC).
    pub durable: bool,
    /// Journal records replayed on open.
    pub recovered_records: usize,
    pub warnings: Vec<String>,
}

impl DurableGateReport {
    pub fn engine_errors(&self) -> usize {
        self.outcomes.iter().filter(|o| o.has_engine_error()).count()
    }

    pub fn has_violation(&self) -> bool {
        self.outcomes.iter().any(|o| o.has_violation())
    }

    /// The canonical verdict artifact: byte-identical between an
    /// uninterrupted run and any crash-resumed run of the same inputs.
    pub fn verdicts_text(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&format!("rule {}\n{}\n", o.rule_id, o.fingerprint));
        }
        out.push_str(&format!("decision {}\n", self.decision));
        out
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "durable gate `{}`: {} — {} rule(s), {} reused from journal, {} fresh\n",
            self.version,
            self.decision,
            self.outcomes.len(),
            self.reused,
            self.fresh,
        );
        for o in &self.outcomes {
            out.push_str(&format!(
                "  {:<12} verified={} violated={} not_covered={} engine_errors={}{}\n",
                o.rule_id,
                o.verified,
                o.violated,
                o.not_covered,
                o.engine_errors,
                if o.unchecked { " (not checked)" } else { "" },
            ));
        }
        if !self.durable {
            out.push_str("  ! journaling disabled mid-run; this run is not resumable\n");
        }
        for w in &self.warnings {
            out.push_str(&format!("  warning: {w}\n"));
        }
        out
    }
}

/// One rule's slot in a durable run.
enum DurableSlot {
    /// Finished in full in the journal already (resume): nothing to
    /// append.
    Journaled,
    /// Checked by the engine ([`SlotHook::settled`]), not yet journaled.
    Settled(RuleOutcome),
    /// Being checked by the engine.
    Pending,
}

/// The journal side of a durable run: a frontier that walks the slots in
/// registry order, appending a rule's records only once every earlier
/// slot has settled. The append sequence is the sequential loop's at any
/// width; at width 1 the timing is too (`RuleCheckStarted` for rule k
/// lands when the frontier reaches it, before rule k runs).
struct Frontier<'a> {
    rules: &'a [SemanticRule],
    durable: &'a DurableOptions,
    /// Slots the engine checks; read lock-free at dequeue, never behind
    /// an append's fsync.
    pending: Vec<bool>,
    state: Mutex<FrontierState>,
}

struct FrontierState {
    store: RunStore,
    slots: Vec<DurableSlot>,
    /// First slot not yet journaled, and whether its `RuleCheckStarted`
    /// is already appended.
    next: usize,
    started: bool,
    /// `RuleCheckFinished` appends so far.
    fresh: usize,
}

impl Frontier<'_> {
    fn cancelled(&self) -> bool {
        self.durable.cancel.as_ref().is_some_and(|c| c.load(Ordering::SeqCst))
    }

    /// Journal every slot up to the first pending one. Once cancellation
    /// fires nothing more is appended; the journal stays valid for resume.
    fn advance(&self, st: &mut FrontierState) {
        while st.next < st.slots.len() && !self.cancelled() {
            if !st.started && !matches!(st.slots[st.next], DurableSlot::Journaled) {
                st.store.record_started(&self.rules[st.next].id);
                st.started = true;
            }
            match &st.slots[st.next] {
                DurableSlot::Pending => return,
                DurableSlot::Journaled => {}
                DurableSlot::Settled(outcome) => {
                    st.store.record_finished(outcome.clone());
                    st.fresh += 1;
                }
            }
            if let Some(beat) = &self.durable.progress {
                beat();
            }
            st.next += 1;
            st.started = false;
        }
    }
}

impl SlotHook for Frontier<'_> {
    fn skip(&self, i: usize) -> bool {
        !self.pending[i] || self.cancelled()
    }

    fn settled(&self, i: usize, report: &RuleReport) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.slots[i] = DurableSlot::Settled(outcome_of(report));
        self.advance(&mut st);
    }
}

/// Run the gate durably: journal every settled verdict, reuse verdicts a
/// previous (crashed) run already journaled, and record the final
/// decision. Opening the store can fail (bad directory); everything past
/// that degrades instead of failing — an undecidable gate is worse than
/// an unjournaled one.
///
/// The run is one engine call over the whole registry. Journaled rules
/// are settled before scheduling and skipped by the engine; the
/// [`Frontier`] journals the rest in registry order as they settle.
pub fn gate_durable(
    registry: &RuleRegistry,
    version: &SystemVersion,
    config: &PipelineConfig,
    gate: &GateOptions,
    durable: &DurableOptions,
) -> Result<DurableGateReport, StoreError> {
    let rules = registry.rules();
    let key = durable_key(version, rules, config, gate);
    let mut run_span = lisa_telemetry::span_with("service.durable_run", key.as_str());
    let mut store = RunStore::open_replicated(
        &durable.state_dir,
        &key,
        durable.disk_faults.clone(),
        durable.repl.clone(),
    )?;
    let mut warnings = std::mem::take(&mut store.warnings);
    let recovered_records = store.recovered_records;

    // An unchecked outcome is checked now: the deadline that left it
    // unchecked is not part of the journal key, so this run may have
    // none. Its new `RuleCheckFinished` replaces the old one by rule id.
    let slots: Vec<DurableSlot> = rules
        .iter()
        .map(|rule| match store.state.finished_outcome(&rule.id) {
            Some(outcome) if !outcome.unchecked => DurableSlot::Journaled,
            _ => DurableSlot::Pending,
        })
        .collect();
    let pending: Vec<bool> = slots.iter().map(|s| matches!(s, DurableSlot::Pending)).collect();
    let reused = slots.iter().filter(|s| matches!(s, DurableSlot::Journaled)).count();

    let frontier = Frontier {
        rules,
        durable,
        pending,
        state: Mutex::new(FrontierState { store, slots, next: 0, started: false, fresh: 0 }),
    };
    frontier.advance(&mut frontier.state.lock().unwrap_or_else(|p| p.into_inner()));
    let report = enforce_impl(
        registry,
        version,
        config,
        durable.workers,
        gate,
        durable.cache.as_ref(),
        Some(&frontier),
    );
    if frontier.cancelled() {
        return Err(StoreError::Cancelled);
    }
    let FrontierState { mut store, fresh, .. } =
        frontier.state.into_inner().unwrap_or_else(|p| p.into_inner());
    warnings.extend(report.warnings);

    let outcomes: Vec<RuleOutcome> =
        rules.iter().filter_map(|r| store.state.finished_outcome(&r.id).cloned()).collect();
    let engine_errors = outcomes.iter().filter(|o| o.has_engine_error()).count();
    let decision =
        decide(outcomes.iter().any(|o| o.has_violation()), engine_errors, gate.fail_mode);
    store.record_run_finished(&decision.to_string());
    warnings.extend(store.warnings.iter().cloned());
    count_decision(decision);

    run_span.arg("rules", rules.len() as u64);
    run_span.arg("reused", reused as u64);
    run_span.arg("fresh", fresh as u64);
    run_span.arg("recovered_records", recovered_records as u64);
    if lisa_telemetry::metrics_enabled() {
        lisa_telemetry::counter_add("service.verdicts_reused", reused as u64);
        lisa_telemetry::counter_add("service.verdicts_fresh", fresh as u64);
        lisa_telemetry::counter_add("service.durable_runs", 1);
    }

    Ok(DurableGateReport {
        version: version.label.clone(),
        run_key: key,
        decision,
        fail_mode: gate.fail_mode,
        outcomes,
        reused,
        fresh,
        durable: store.durable(),
        recovered_records,
        warnings,
    })
}

// ---------------------------------------------------------------------------
// The serve daemon
// ---------------------------------------------------------------------------

/// Configuration for [`serve`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix socket path to listen on (created; removed on clean exit).
    pub socket: PathBuf,
    /// Root directory for per-job durable state (`<root>/<job-id>/`).
    pub state_root: PathBuf,
    /// Worker threads.
    pub workers: usize,
    /// Queue capacity, shared by the tenants in proportion to their
    /// weights: a submission past the global cap or past its tenant's
    /// share gets a `shed` reply with a `retry_after_ms` hint.
    pub queue_cap: usize,
    /// A worker making no progress on its job for this long is
    /// considered stalled: abandoned, its job dead-lettered. Progress is
    /// a per-rule heartbeat from the durable run, so this bounds one
    /// rule check, not the whole job — a slow but advancing gate is left
    /// alone.
    pub job_timeout: Duration,
    /// Additionally accept gate submissions over TCP at this
    /// `host:port`. Like every listener, it is multiplexed onto the
    /// supervisor thread by the nonblocking `poll(2)` readiness loop —
    /// thousands of idle clients cost no threads.
    pub listen: Option<String>,
    /// Tenant roster: fairness weight and optional per-tenant job
    /// timeout per name. Tenants not listed here auto-register at
    /// weight 1 on first submission.
    pub tenants: Vec<TenantSpec>,
    /// Maximum concurrently parked connections (accepted, request line
    /// not yet complete) across both listeners: the unix socket and
    /// `listen`. Accepts past it are answered with a structured shed and
    /// closed.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            socket: PathBuf::from("lisa.sock"),
            state_root: PathBuf::from("lisa-state"),
            workers: 2,
            queue_cap: 64,
            job_timeout: Duration::from_secs(30),
            listen: None,
            tenants: Vec::new(),
            max_conns: 4096,
        }
    }
}

/// Counters the daemon reports on exit and via the `stats` op.
#[derive(Debug, Default, Clone)]
pub struct ServeStats {
    pub jobs_done: u64,
    pub dead_letters: u64,
    pub respawned_workers: u64,
    pub rejected_overload: u64,
}

/// One queued gate job. The response stream travels with the job so
/// whoever settles it — worker, or supervisor on dead-letter — can reply.
struct Job {
    id: String,
    /// The job's state-dir name, [`sanitize`]d from `id` once at
    /// admission.
    dir: String,
    tenant: String,
    system: String,
    rules: String,
    fail_mode: FailMode,
    /// Test hook: a drill that breaks the worker running this job.
    chaos: Option<Chaos>,
    stream: Stream,
    /// When the job was admitted: its queue wait ends at dequeue.
    admitted: Instant,
}

/// A chaos drill a gate request on the unix socket may ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chaos {
    /// The worker panics.
    Panic,
    /// The worker wedges: it never heartbeats and outlives the job
    /// timeout.
    Stall,
}

/// A worker's in-flight job: parked here while processing so the
/// supervisor can recover it from a panicked or stalled thread. The
/// `Instant` is the job's last heartbeat, refreshed per settled rule;
/// the `Duration` is its tenant's stall timeout, read from the queue
/// when the job was dequeued.
///
/// A slot is owned by exactly one live worker: when the supervisor
/// abandons a stalled worker it replaces the slot (and the worker) in
/// the pool, so the abandoned thread's `take()` can only ever see its
/// own job or `None` — never a job a replacement worker parked later.
type Slot = Arc<Mutex<Option<(Job, Instant, Duration)>>>;

/// One pool entry: the worker thread, the slot it parks jobs in, and the
/// cancellation flag the supervisor raises when abandoning it.
struct Worker {
    handle: Option<JoinHandle<()>>,
    slot: Slot,
    cancel: Arc<AtomicBool>,
}

struct QueueState {
    /// Per-tenant bounded queues with weighted-fair (stride) dequeue.
    queues: FairQueues<Job>,
    /// State-dir keys currently owned by a live run (including an
    /// abandoned thread that has not yet reached a cancellation point).
    /// Workers skip queued jobs whose key is busy, so two runs can
    /// never hold a `RunStore` on the same directory at once.
    busy_dirs: HashSet<String>,
}

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    shutdown: AtomicBool,
    jobs_done: AtomicU64,
    state_root: PathBuf,
    /// Worker slots by pool position, read by the `stats` op. The
    /// supervisor replaces an entry whenever it respawns that worker, so
    /// the view always reflects the live pool — an abandoned thread's
    /// stale slot is unreachable from here.
    worker_slots: Mutex<Vec<Slot>>,
    /// Each tenant's version-scoped verdict cache. Isolation, not just
    /// bookkeeping: one tenant's cached verdicts are invisible to every
    /// other tenant's jobs.
    caches: Mutex<HashMap<String, Arc<GateCache>>>,
    /// Connections currently parked in the readiness loop across every
    /// listener (the `stats` key keeps its historical `listen_conns`
    /// name), refreshed each supervision tick.
    listen_conns: AtomicU64,
}

impl Shared {
    fn cache(&self, tenant: &str) -> Arc<GateCache> {
        let mut map = self.caches.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(map.entry(tenant.to_string()).or_default())
    }
}

/// Holds a job's state-dir key in `busy_dirs` for the duration of one
/// run. Dropped on every exit path — normal completion, chaos panic
/// unwind, or cancelled abandonment — so the key is always released.
struct DirGuard {
    shared: Arc<Shared>,
    key: String,
}

impl Drop for DirGuard {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap_or_else(|p| p.into_inner()).busy_dirs.remove(&self.key);
        // A waiting worker may only have been blocked on this dir.
        self.shared.available.notify_all();
    }
}

fn write_reply(stream: &mut impl Write, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// Write one reply line to a client. The client may have gone away; a
/// failed write is counted in `serve.reply_errors` and the connection
/// closes when the stream drops. The readiness loop hands every stream
/// out with a write timeout, so a dead client costs a counter bump,
/// never a wedged supervisor or worker.
fn send(stream: &mut Stream, line: &str) {
    if let Err(e) = write_reply(stream, line) {
        lisa_telemetry::counter_add("serve.reply_errors", 1);
        lisa_telemetry::note("serve", || format!("reply failed: {e}"));
    }
}

/// The exit-code contract of `lisa gate`, `lisa resume` and serve
/// replies: 0 = pass, 1 = violations, 2 = blocked by engine errors alone
/// (fail-closed). Exit 2 is reserved for true engine errors, so a
/// violation explains a block before an engine error does.
pub fn exit_code_of(decision: GateDecision, has_violation: bool) -> u8 {
    match decision {
        GateDecision::Pass => 0,
        GateDecision::Block if has_violation => 1,
        GateDecision::Block => 2,
    }
}

fn done_response(job_id: &str, report: &DurableGateReport) -> String {
    format!(
        "{{\"job_id\":\"{}\",\"status\":\"done\",\"decision\":\"{}\",\"exit\":{},\"violations\":{},\"engine_errors\":{},\"reused\":{},\"fresh\":{}}}",
        escape(job_id),
        report.decision,
        exit_code_of(report.decision, report.has_violation()),
        report.outcomes.iter().map(|o| o.violated).sum::<u64>(),
        report.engine_errors(),
        report.reused,
        report.fresh,
    )
}

fn error_response(job_id: &str, status: &str, error: &str) -> String {
    format!(
        "{{\"job_id\":\"{}\",\"status\":\"{}\",\"exit\":2,\"error\":\"{}\"}}",
        escape(job_id),
        escape(status),
        escape(error),
    )
}

/// Explicit admission control: the client learns immediately that it
/// was turned away and when to come back, instead of blocking on a
/// saturated queue or having its connection silently dropped.
fn shed_response(job_id: &str, tenant: &str, retry_after_ms: u64, reason: &str) -> String {
    format!(
        "{{\"job_id\":\"{}\",\"status\":\"shed\",\"tenant\":\"{}\",\"retry_after_ms\":{retry_after_ms},\"exit\":2,\"error\":\"{}\"}}",
        escape(job_id),
        escape(tenant),
        escape(reason),
    )
}

/// The request's `job_id`, or a structured bad-request when it exceeds
/// [`MAX_JOB_ID_LEN`]. The over-long id is not echoed back: every reply
/// must stay bounded no matter what the client sent.
fn bounded_job_id(request: &Json) -> Result<Option<&str>, String> {
    match request.str_of("job_id") {
        Some(id) if id.len() > MAX_JOB_ID_LEN => Err(error_response(
            "",
            "bad-request",
            &format!("job_id length {} exceeds the {MAX_JOB_ID_LEN}-byte bound", id.len()),
        )),
        id => Ok(id),
    }
}

/// A gate request's checked fields.
type GateFields<'a> = (Option<&'a str>, &'a str, &'a str, &'a str, FailMode, Option<Chaos>);

/// A gate request's checked fields — job id, tenant, system, rules, fail
/// mode and chaos drill — or the bad-request reply that rejects it. An
/// unknown drill is refused rather than run as a normal job.
fn gate_fields(request: &Json) -> Result<GateFields<'_>, String> {
    let bad = |e: &str| error_response("", "bad-request", e);
    let tenant = request.str_of("tenant").unwrap_or("default");
    if !valid_tenant(tenant) {
        return Err(bad("tenant must be 1..=32 chars of [A-Za-z0-9_-]"));
    }
    let (Some(system), Some(rules)) = (request.str_of("system"), request.str_of("rules")) else {
        return Err(bad("gate needs `system` and `rules`"));
    };
    let fail_mode =
        request.str_of("fail_mode").unwrap_or("closed").parse().map_err(|e: String| bad(&e))?;
    let chaos = match request.get("chaos").map(|_| request.str_of("chaos")) {
        None => None,
        Some(Some("panic")) => Some(Chaos::Panic),
        Some(Some("stall")) => Some(Chaos::Stall),
        Some(_) => return Err(bad("`chaos` must be \"panic\" or \"stall\"")),
    };
    Ok((bounded_job_id(request)?, tenant, system, rules, fail_mode, chaos))
}

/// Map a client-supplied job id to its state-directory name. Ids that
/// are already filesystem-safe map to themselves; anything else gets a
/// hash of the raw id appended so distinct ids can never collide after
/// character replacement (`a/b` vs `a_b`), and an empty id can never
/// alias the state root itself.
fn sanitize(id: &str) -> String {
    let safe: String = id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    if safe == id && !safe.is_empty() {
        safe
    } else {
        format!("{safe}-{:08x}", fnv1a(id.as_bytes()) as u32)
    }
}

/// Process one gate job end to end (load, durable gate, response text).
/// `cancel` stops the run at the next rule boundary once the supervisor
/// abandons this worker; `progress` is the per-rule liveness heartbeat.
#[allow(clippy::too_many_arguments)] // the full job context, threaded once
fn process_job(
    system: &str,
    rules_path: &str,
    fail_mode: FailMode,
    shared: &Arc<Shared>,
    dir: &str,
    tenant: &str,
    cancel: Arc<AtomicBool>,
    progress: Arc<dyn Fn() + Send + Sync>,
) -> Result<DurableGateReport, String> {
    let version = load_system(system, "test_")?;
    let mut registry = RuleRegistry::new();
    for r in load_rules(rules_path)? {
        registry.register(r);
    }
    let config = PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() };
    let gate = GateOptions { fail_mode, ..GateOptions::default() };
    let durable = DurableOptions {
        state_dir: shared.state_root.join(dir),
        progress: Some(progress),
        cancel: Some(cancel),
        // The tenant's own cache: verdict reuse never crosses tenants.
        cache: Some(shared.cache(tenant)),
        ..DurableOptions::default()
    };
    gate_durable(&registry, &version, &config, &gate, &durable).map_err(|e| e.to_string())
}

fn worker_loop(shared: Arc<Shared>, slot: Slot, cancel: Arc<AtomicBool>) {
    loop {
        // An abandoned worker must never pull another job: its slot is no
        // longer supervised, so any job it took would be invisible.
        if cancel.load(Ordering::SeqCst) {
            return;
        }
        let popped = {
            let mut q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if cancel.load(Ordering::SeqCst) {
                    break None;
                }
                // Weighted-fair pick across tenants, skipping jobs whose
                // state dir another run still owns — a resubmitted job
                // must never race its abandoned predecessor on the same
                // journal, and duplicate job ids serialize.
                let QueueState { queues, busy_dirs } = &mut *q;
                if let Some((job, timeout)) = queues.pop(|j| !busy_dirs.contains(&j.dir)) {
                    let key = job.dir.clone();
                    busy_dirs.insert(key.clone());
                    break Some((job, timeout, key));
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
        };
        let Some((job, timeout, key)) = popped else { return };
        // A cross-thread interval no span can time: admission on the
        // supervisor, dequeue here.
        lisa_telemetry::histogram_record(
            "serve.queue_wait_us",
            job.admitted.elapsed().as_micros() as u64,
        );
        // Released on every exit from this iteration — completion, chaos
        // panic unwind, or cancelled abandonment.
        let dir = DirGuard { shared: Arc::clone(&shared), key };
        let (id, tenant, system, rules, fail_mode, chaos) = (
            job.id.clone(),
            job.tenant.clone(),
            job.system.clone(),
            job.rules.clone(),
            job.fail_mode,
            job.chaos,
        );
        let mut job_span = lisa_telemetry::span_with("serve.job", id.as_str());
        let job_started = Instant::now();
        // Park the job (with its response stream) in the slot FIRST: from
        // here on, a panic or stall loses nothing — the supervisor
        // recovers the job from the slot.
        *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some((job, job_started, timeout));
        match chaos {
            Some(Chaos::Panic) => panic!("{FAULT_PANIC_PREFIX} chaos panic for job {id}"),
            Some(Chaos::Stall) => {
                // A wedged job: never heartbeats, outlives any plausible
                // job timeout. Cancellation-aware only so the abandoned
                // run releases its state dir promptly for a resubmission.
                let wedged = Instant::now();
                while !cancel.load(Ordering::SeqCst)
                    && wedged.elapsed() < Duration::from_secs(600)
                {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            None => {}
        }
        let beat_slot = Arc::clone(&slot);
        let progress: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            if let Some((_, beat, _)) =
                beat_slot.lock().unwrap_or_else(|p| p.into_inner()).as_mut()
            {
                *beat = Instant::now();
            }
        });
        let result = process_job(
            &system,
            &rules,
            fail_mode,
            &shared,
            &dir.key,
            &tenant,
            Arc::clone(&cancel),
            progress,
        );
        // Take the job back; if the supervisor already recovered it (it
        // judged us stalled), it owns the reply — do not double-respond.
        let taken = slot.lock().unwrap_or_else(|p| p.into_inner()).take();
        let Some((mut job, _, _)) = taken else { continue };
        let line = match &result {
            Ok(report) => done_response(&job.id, report),
            Err(e) => error_response(&job.id, "error", e),
        };
        send(&mut job.stream, &line);
        shared.jobs_done.fetch_add(1, Ordering::Relaxed);
        let elapsed_us = job_started.elapsed().as_micros() as u64;
        // Settle the tenant's accounting: active count, done count, and
        // the shed-hint duration EWMA.
        shared
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .queues
            .settle(&job.tenant, elapsed_us / 1000);
        job_span.arg("failed", u64::from(result.is_err()));
        if lisa_telemetry::metrics_enabled() {
            lisa_telemetry::histogram_record(&format!("serve.job_us.{}", job.tenant), elapsed_us);
            lisa_telemetry::counter_add("serve.jobs_done", 1);
            if result.is_err() {
                lisa_telemetry::counter_add("serve.jobs_failed", 1);
            }
        }
    }
}

/// Answer a `verdict` query purely from on-disk run state, without
/// opening a [`RunStore`]: recovery repairs (truncation, quarantine)
/// would *mutate* a journal that a worker may be appending to. Corrupt or
/// torn tails simply aren't counted; the job's next run repairs them.
fn verdict_response(state_root: &Path, request: &Json) -> String {
    let job_id = match bounded_job_id(request) {
        Ok(Some(id)) if !id.is_empty() => id,
        Ok(_) => return error_response("", "bad-request", "verdict needs `job_id`"),
        Err(reply) => return reply,
    };
    let dir = state_root.join(sanitize(job_id));
    if !dir.is_dir() {
        return error_response(job_id, "not-found", "no durable state for this job id");
    }
    let bytes = std::fs::read(dir.join(RunStore::JOURNAL)).unwrap_or_default();
    let state = RunState::replay(scan(&bytes).records.iter().map(Vec::as_slice));
    // A compact, order-sensitive digest of the settled verdicts lets a
    // caller compare the state before and after a restart without
    // shipping every report.
    let mut digest = String::new();
    for o in &state.finished {
        digest.push_str(&format!("rule {}\n{}\n", o.rule_id, o.fingerprint));
    }
    if let Some(d) = &state.decision {
        digest.push_str(&format!("decision {d}\n"));
    }
    format!(
        "{{\"status\":\"ok\",\"job_id\":\"{}\",\"decision\":\"{}\",\"started\":{},\"finished\":{},\"verdicts_fnv\":\"{:016x}\"}}",
        escape(job_id),
        escape(state.decision.as_deref().unwrap_or("in-progress")),
        state.started.len(),
        state.finished.len(),
        fnv1a(digest.as_bytes()),
    )
}

/// Answer the connections the readiness loop handed back without a
/// request — past `max_conns` a structured shed, past the line bound a
/// bad-request — and return the complete request lines to dispatch.
fn answer_refused(pumped: Pumped, stats: &mut ServeStats) -> Vec<(Port, Stream, String)> {
    for mut stream in pumped.over_capacity {
        stats.rejected_overload += 1;
        lisa_telemetry::counter_add("serve.shed", 1);
        send(&mut stream, &shed_response("", "", 1000, "connection limit reached"));
    }
    for mut stream in pumped.over_length {
        send(
            &mut stream,
            &error_response("", "bad-request", "request line exceeds the 64KiB bound"),
        );
    }
    if pumped.dropped > 0 {
        lisa_telemetry::counter_add("serve.conns_dropped", pumped.dropped as u64);
    }
    pumped.requests
}

/// The supervisor's longest wait: one `poll(2)` tick. It keeps
/// supervision (reaping, snapshots) ticking with no
/// I/O; readiness wakes the loop at once.
const SUPERVISION_TICK: Duration = Duration::from_millis(10);

/// How often the daemon persists a metrics snapshot while running.
const METRICS_SNAPSHOT_INTERVAL: Duration = Duration::from_secs(2);

/// Where the daemon persists its metrics snapshot under the state root,
/// so cumulative `stats` counters and timings survive a restart. The
/// file holds one checksummed frame, replaced whole (temp + fsync +
/// rename): a crash at any point leaves the previous snapshot or the
/// next, so at most one snapshot interval is lost. A snapshot written
/// by older daemons, a one-record journal, is the same single frame.
fn metrics_path(state_root: &Path) -> PathBuf {
    state_root.join("metrics.journal")
}

/// Replay the persisted metrics snapshot (the `metrics_json` format)
/// into the live registry. A missing, damaged or malformed snapshot is
/// ignored — restoring metrics is never worth failing the daemon over.
fn restore_metrics(path: &Path) {
    let Some(bytes) = read_atomic(path) else { return };
    let Ok(text) = std::str::from_utf8(&bytes) else { return };
    let Ok(snap) = Json::parse(text) else { return };
    if let Some(Json::Obj(counters)) = snap.get("counters") {
        for (name, value) in counters {
            if let Some(v) = value.as_u64() {
                lisa_telemetry::counter_add(name, v);
            }
        }
    }
    if let Some(Json::Obj(histograms)) = snap.get("histograms") {
        for (name, h) in histograms {
            let Some(Json::Arr(buckets)) = h.get("buckets") else { continue };
            let mut restored = Histogram::new();
            for (i, b) in buckets.iter().take(restored.buckets.len()).enumerate() {
                restored.buckets[i] = b.as_u64().unwrap_or(0);
            }
            restored.count = h.u64_of("count").unwrap_or(0);
            restored.sum = h.u64_of("sum").unwrap_or(0);
            lisa_telemetry::histogram_merge(name, &restored);
        }
    }
}

/// Persist the current metrics snapshot, replacing the previous one. On
/// any I/O failure persistence is dropped for the rest of the run —
/// best-effort persistence must not wedge the supervisor.
fn snapshot_metrics(path: &mut Option<PathBuf>) {
    let Some(p) = path else { return };
    if let Err(e) = write_atomic(p, lisa_telemetry::metrics_json().as_bytes()) {
        lisa_telemetry::note("serve", || {
            format!("metrics snapshot failed ({e}); persistence disabled")
        });
        *path = None;
    }
}

/// Run the daemon until a `shutdown` request drains it. Never panics on
/// malformed input; every connection gets some reply.
pub fn serve(config: &ServeConfig) -> Result<ServeStats, String> {
    if let Some(parent) = config.socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
        }
    }
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket)
        .map_err(|e| format!("bind {}: {e}", config.socket.display()))?;
    // Every port goes through this one readiness loop on the supervisor
    // thread. Thousands of parked sockets need headroom past the default
    // 1024 soft fd limit.
    raise_fd_limit(config.max_conns as u64 + 512);
    let mut gate = LineGate::new(config.max_conns);
    gate.listen(Port::Local, Listener::Unix(listener))?;
    std::fs::create_dir_all(&config.state_root)
        .map_err(|e| format!("mkdir {}: {e}", config.state_root.display()))?;

    // The daemon always collects metrics: the `stats` op and the
    // journaled snapshots depend on them. Spans stay off unless the
    // caller opted into them — an unbounded span registry would leak in
    // a long-running process.
    if lisa_telemetry::config() == lisa_telemetry::TelemetryConfig::Off {
        lisa_telemetry::init(lisa_telemetry::TelemetryConfig::MetricsOnly);
    }
    let metrics_file = metrics_path(&config.state_root);
    restore_metrics(&metrics_file);
    let mut metrics_snapshot = Some(metrics_file);
    let mut last_snapshot = Instant::now();
    let mut stats = ServeStats::default();

    if let Some(addr) = &config.listen {
        gate.listen(Port::Listen, Listener::tcp(addr)?)?;
        lisa_telemetry::note("serve", || format!("gate listening on tcp {addr}"));
    }

    // 0 = auto-size the pool to the machine, like the gate engine.
    let workers = crate::resolve_workers(config.workers);
    lisa_telemetry::note("serve", || {
        format!("worker pool width {workers} (configured {})", config.workers)
    });
    let mut tenant_specs = config.tenants.clone();
    if !tenant_specs.iter().any(|s| s.name == "default") {
        tenant_specs.push(TenantSpec {
            name: "default".to_string(),
            weight: 1,
            job_timeout: None,
        });
    }
    let queues = FairQueues::new(&tenant_specs, config.queue_cap, config.job_timeout, workers);
    let shared = Arc::new(Shared {
        queue: Mutex::new(QueueState { queues, busy_dirs: HashSet::new() }),
        available: Condvar::new(),
        shutdown: AtomicBool::new(false),
        jobs_done: AtomicU64::new(0),
        state_root: config.state_root.clone(),
        worker_slots: Mutex::new(Vec::new()),
        caches: Mutex::new(HashMap::new()),
        listen_conns: AtomicU64::new(0),
    });
    let mut pool: Vec<Worker> = (0..workers).map(|i| spawn_worker(&shared, i)).collect();

    let mut next_job = 0u64;
    let mut draining = false;

    loop {
        // 1. One poll(2) over every listener and parked connection, then
        // dispatch each completed request line under its port's policy.
        for (port, stream, line) in answer_refused(gate.poll(SUPERVISION_TICK), &mut stats) {
            dispatch_request(
                port,
                &line,
                stream,
                &shared,
                &mut stats,
                &mut next_job,
                &mut draining,
            );
        }
        shared.listen_conns.store(gate.open_conns() as u64, Ordering::Relaxed);

        // 2. Reap panicked workers, abandon stalled ones; recover jobs.
        // Stall detection honors per-tenant job timeouts, parked in the
        // slot with the job, so the queue lock is never taken while a
        // slot lock is held (lock order stays one-way).
        for (widx, worker) in pool.iter_mut().enumerate() {
            let panicked = worker.handle.as_ref().is_some_and(|h| h.is_finished())
                && !shared.shutdown.load(Ordering::SeqCst);
            let stalled = worker
                .slot
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .as_ref()
                .is_some_and(|(_, beat, timeout)| beat.elapsed() > *timeout);
            if !panicked && !stalled {
                continue;
            }
            // Abandon first: a live thread stops at its next cancellation
            // point (rule boundary) and never pulls another job.
            worker.cancel.store(true, Ordering::SeqCst);
            // The job is dead-lettered at once, naming the cause; the
            // client decides whether to submit it again.
            let recovered = worker.slot.lock().unwrap_or_else(|p| p.into_inner()).take();
            if let Some((mut job, _, _)) = recovered {
                let why =
                    if stalled { "worker stalled past the job timeout" } else { "worker panicked" };
                send(&mut job.stream, &error_response(&job.id, "dead-letter", why));
                stats.dead_letters += 1;
                shared
                    .queue
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .queues
                    .dead_letter(&job.tenant);
            }
            if panicked {
                // Collect the dead thread; a panic result is expected.
                if let Some(h) = worker.handle.take() {
                    let _ = h.join();
                }
            }
            // The replacement gets a FRESH slot and cancel flag. An
            // abandoned (stalled, unkillable) thread still holds the old
            // slot Arc, so its eventual `take()` sees only `None` — it
            // can never grab a job the replacement parked, nor answer one
            // job's client with another job's verdict.
            *worker = spawn_worker(&shared, widx);
            stats.respawned_workers += 1;
            lisa_telemetry::counter_add("serve.respawned_workers", 1);
            lisa_telemetry::event(
                "serve.worker_respawned",
                format!(
                    "worker {widx} {}",
                    if stalled { "stalled; abandoned" } else { "panicked; reaped" }
                ),
            );
        }

        // 3. Periodically persist a metrics snapshot so cumulative stats
        // survive a daemon restart.
        if last_snapshot.elapsed() >= METRICS_SNAPSHOT_INTERVAL {
            snapshot_metrics(&mut metrics_snapshot);
            last_snapshot = Instant::now();
        }

        // 4. Drain: queue empty, no in-flight jobs.
        if draining {
            let queue_empty = shared
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .queues
                .queued_total()
                == 0;
            let idle = pool
                .iter()
                .all(|w| w.slot.lock().unwrap_or_else(|p| p.into_inner()).is_none());
            if queue_empty && idle {
                break;
            }
        }
        // No sleep here: step 1's poll(2) is the loop's wait.
    }

    shared.shutdown.store(true, Ordering::SeqCst);
    shared.available.notify_all();
    for worker in pool.iter_mut() {
        if let Some(h) = worker.handle.take() {
            let _ = h.join();
        }
    }
    stats.jobs_done = shared.jobs_done.load(Ordering::Relaxed);
    snapshot_metrics(&mut metrics_snapshot);
    let _ = std::fs::remove_file(&config.socket);
    Ok(stats)
}

fn spawn_worker(shared: &Arc<Shared>, index: usize) -> Worker {
    let slot: Slot = Arc::new(Mutex::new(None));
    {
        let mut slots = shared.worker_slots.lock().unwrap_or_else(|p| p.into_inner());
        if index >= slots.len() {
            slots.resize_with(index + 1, || Arc::new(Mutex::new(None)));
        }
        slots[index] = Arc::clone(&slot);
    }
    let cancel = Arc::new(AtomicBool::new(false));
    let handle = {
        let shared = Arc::clone(shared);
        let slot = Arc::clone(&slot);
        let cancel = Arc::clone(&cancel);
        std::thread::spawn(move || worker_loop(shared, slot, cancel))
    };
    Worker { handle: Some(handle), slot, cancel }
}

/// Timing histograms surfaced (as p50/p95/p99 summaries) in the `stats`
/// reply: the layers a served job passes through, in order. Each but
/// the queue wait is a span's `<name>_us`.
const STATS_TIMINGS: [&str; 12] = [
    "serve.queue_wait_us",
    "serve.job_us",
    "lang.load_us",
    "service.durable_run_us",
    "gate.enforce_us",
    "pipeline.rule_us",
    "analysis.callgraph_us",
    "concolic.run_us",
    "pipeline.judge_us",
    "smt.check_us",
    "store.append_us",
    "store.fsync_us",
];

/// The cumulative telemetry counters as one JSON object.
fn counters_json() -> String {
    let mut counters = String::from("{");
    for (i, (name, value)) in lisa_telemetry::counters_snapshot().iter().enumerate() {
        if i > 0 {
            counters.push(',');
        }
        counters.push_str(&format!("\"{}\":{value}", escape(name)));
    }
    counters.push('}');
    counters
}

/// The per-layer timing summaries in `hists` as one JSON object.
fn timings_json(hists: &BTreeMap<String, Histogram>) -> String {
    let mut timings = String::from("{");
    let mut first = true;
    for name in STATS_TIMINGS {
        let Some(h) = hists.get(name) else { continue };
        if !first {
            timings.push(',');
        }
        first = false;
        timings.push_str(&format!(
            "\"{name}\":{{\"count\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            h.count,
            h.percentile(0.50),
            h.percentile(0.95),
            h.percentile(0.99),
        ));
    }
    timings.push('}');
    timings
}

/// Per-tenant queue, fairness, and latency summaries for the `stats`
/// reply: the operator's view of who is queued, who is shedding, and
/// each tenant's p50/p95/p99 job latency, read from `hists`.
fn tenants_json(shared: &Arc<Shared>, hists: &BTreeMap<String, Histogram>) -> String {
    let q = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
    let mut out = String::from("{");
    let mut first = true;
    for (name, t) in q.queues.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        let (jobs, p50, p95, p99) = match hists.get(&format!("serve.job_us.{name}")) {
            Some(h) => {
                (h.count, h.percentile(0.50), h.percentile(0.95), h.percentile(0.99))
            }
            None => (0, 0, 0, 0),
        };
        out.push_str(&format!(
            "\"{}\":{{\"weight\":{},\"queued\":{},\"active\":{},\"done\":{},\"shed\":{},\"dead_letters\":{},\"jobs\":{jobs},\"p50_us\":{p50},\"p95_us\":{p95},\"p99_us\":{p99}}}",
            escape(name),
            t.weight,
            t.queued(),
            t.active,
            t.done,
            t.shed,
            t.dead_letters,
        ));
    }
    out.push('}');
    out
}

/// Build the one-line `stats` reply: queue depth, per-worker states,
/// per-tenant summaries, cumulative telemetry counters (restored across
/// restarts via the metrics snapshot), and per-layer timing summaries.
fn stats_response(shared: &Arc<Shared>, stats: &ServeStats) -> String {
    // One snapshot of the histogram registry serves both summaries.
    let hists = lisa_telemetry::histograms_snapshot();
    let queued = shared.queue.lock().unwrap_or_else(|p| p.into_inner()).queues.queued_total();
    let resolved_workers;
    let mut workers = String::from("[");
    {
        let slots = shared.worker_slots.lock().unwrap_or_else(|p| p.into_inner());
        resolved_workers = slots.len();
        for (i, slot) in slots.iter().enumerate() {
            if i > 0 {
                workers.push(',');
            }
            match slot.lock().unwrap_or_else(|p| p.into_inner()).as_ref() {
                Some((job, beat, _)) => workers.push_str(&format!(
                    "{{\"worker\":{i},\"state\":\"busy\",\"job_id\":\"{}\",\"since_heartbeat_ms\":{}}}",
                    escape(&job.id),
                    beat.elapsed().as_millis(),
                )),
                None => workers.push_str(&format!("{{\"worker\":{i},\"state\":\"idle\"}}")),
            }
        }
    }
    workers.push(']');
    format!(
        "{{\"status\":\"ok\",\"jobs_done\":{},\"dead_letters\":{},\"respawned_workers\":{},\"rejected_overload\":{},\"queued\":{queued},\"listen_conns\":{},\"tenants\":{},\"resolved_workers\":{resolved_workers},\"workers\":{workers},\"counters\":{},\"timings\":{}}}",
        shared.jobs_done.load(Ordering::Relaxed),
        stats.dead_letters,
        stats.respawned_workers,
        stats.rejected_overload,
        shared.listen_conns.load(Ordering::Relaxed),
        tenants_json(shared, &hists),
        counters_json(),
        timings_json(&hists),
    )
}

/// Parse one NDJSON request line, shared by every listener. Protocol
/// versioning: absent `v` means v1 (pre-versioning clients); a
/// non-numeric or mismatched `v` is a structured bad-request rather than
/// a silent assumption. `Err` is the reply.
fn parse_request(line: &str) -> Result<Json, String> {
    let bad = |e: &str| error_response("", "bad-request", e);
    let request = Json::parse(line.trim()).map_err(|e| bad(&format!("bad JSON: {e}")))?;
    match (request.get("v"), request.u64_of("v")) {
        (None, _) | (_, Some(PROTOCOL_VERSION)) => Ok(request),
        (_, Some(v)) => Err(bad(&format!(
            "unsupported protocol version {v} (daemon speaks v{PROTOCOL_VERSION})"
        ))),
        (Some(_), None) => Err(bad("field `v` must be a number")),
    }
}

/// Dispatch one complete NDJSON request line from the readiness loop.
/// The unix socket and `--listen` speak exactly the same protocol, so
/// per-job replies are byte-identical across them.
fn dispatch_request(
    port: Port,
    line: &str,
    mut stream: Stream,
    shared: &Arc<Shared>,
    stats: &mut ServeStats,
    next_job: &mut u64,
    draining: &mut bool,
) {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(reply) => return send(&mut stream, &reply),
    };
    match request.str_of("op").unwrap_or("gate") {
        "ping" => send(&mut stream, "{\"status\":\"ok\"}"),
        "stats" => send(&mut stream, &stats_response(shared, stats)),
        "verdict" => send(&mut stream, &verdict_response(&shared.state_root, &request)),
        "shutdown" => {
            *draining = true;
            send(&mut stream, "{\"status\":\"draining\"}");
        }
        "gate" => {
            if *draining {
                return send(
                    &mut stream,
                    &error_response("", "shutting-down", "daemon is draining"),
                );
            }
            // A chaos drill wedges or panics a worker on purpose, so only
            // the local unix socket may ask for one.
            if port != Port::Local && request.get("chaos").is_some() {
                return send(
                    &mut stream,
                    &error_response("", "bad-request", "`chaos` is served only on the unix socket"),
                );
            }
            let (id, tenant, system, rules, fail_mode, chaos) = match gate_fields(&request) {
                Ok(fields) => fields,
                Err(reply) => return send(&mut stream, &reply),
            };
            *next_job += 1;
            let id = id.map(str::to_string).unwrap_or_else(|| format!("job-{next_job}"));
            // From here the stream travels with the job; on admission
            // the reply comes when the job settles, on shed it comes
            // right back with the retry hint.
            let job = Job {
                dir: sanitize(&id),
                id,
                tenant: tenant.to_string(),
                system: system.to_string(),
                rules: rules.to_string(),
                fail_mode,
                chaos,
                stream,
                admitted: Instant::now(),
            };
            let admitted = shared
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .queues
                .admit(tenant, job);
            match admitted {
                Admitted::Queued => shared.available.notify_one(),
                Admitted::Shed { mut job, retry_after_ms, reason } => {
                    stats.rejected_overload += 1;
                    lisa_telemetry::counter_add("serve.shed", 1);
                    let reply = shed_response(&job.id, tenant, retry_after_ms, reason.as_str());
                    send(&mut job.stream, &reply);
                }
                Admitted::Refused { mut job, error } => {
                    let reply = error_response(&job.id, "bad-request", &error);
                    send(&mut job.stream, &reply);
                }
            }
        }
        other => {
            send(&mut stream, &error_response("", "bad-request", &format!("unknown op {other:?}")))
        }
    }
}

/// Client side over TCP: send one NDJSON request to a `--listen` daemon
/// and wait for the one-line reply. The wire protocol (and every reply
/// byte) is identical to the unix-socket path.
pub fn request_tcp(addr: &str, line: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    round_trip(stream, line)
}

/// Client side: send one NDJSON request and wait for the one-line reply.
pub fn request(socket: &Path, line: &str) -> std::io::Result<String> {
    let stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    round_trip(stream, line)
}

fn round_trip(mut stream: impl Read + Write, line: &str) -> std::io::Result<String> {
    write_reply(&mut stream, line)?;
    let reply = BufReader::new(stream).lines().next().transpose()?.unwrap_or_default();
    Ok(reply.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lisa_analysis::TargetSpec;

    fn version(guarded: bool) -> SystemVersion {
        let guard = if guarded { "session == null || session.closing" } else { "session == null" };
        let src = format!(
            "struct Session {{ id: int, closing: bool }}\n\
             global sessions: map<int, Session>;\n\
             fn create_ephemeral(s: Session, path: str) {{}}\n\
             fn prep_create(sid: int, path: str) {{\n\
                 let session: Session = sessions.get(sid);\n\
                 if ({guard}) {{ return; }}\n\
                 create_ephemeral(session, path);\n\
             }}\n\
             fn test_prep_live() {{\n\
                 sessions.put(1, new Session {{ id: 1 }});\n\
                 prep_create(1, \"/a\");\n\
             }}"
        );
        let p = Program::parse_single("zk", &src).expect("parse");
        let tests = discover_tests(&p, "test_");
        SystemVersion::new(if guarded { "fixed" } else { "regressed" }, p, tests)
    }

    fn registry() -> RuleRegistry {
        let mut reg = RuleRegistry::new();
        for (id, cond) in
            [("ZK-1208-r0", "s != null && s.closing == false"), ("EXTRA-r0", "s != null")]
        {
            reg.register(
                SemanticRule::new(
                    id,
                    id,
                    TargetSpec::Call { callee: "create_ephemeral".into() },
                    cond,
                )
                .expect("rule"),
            );
        }
        reg
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lisa-svc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn config() -> PipelineConfig {
        PipelineConfig { selection: TestSelection::All, ..PipelineConfig::default() }
    }

    #[test]
    fn run_key_separates_versions_and_rule_sets() {
        let reg = registry();
        let fixed = run_key(&version(true), reg.rules());
        let regressed = run_key(&version(false), reg.rules());
        assert_ne!(fixed, regressed);
        let mut fewer = RuleRegistry::new();
        fewer.register(reg.rules()[0].clone());
        assert_ne!(fixed, run_key(&version(true), fewer.rules()));
        // Deterministic across calls.
        assert_eq!(fixed, run_key(&version(true), reg.rules()));
    }

    #[test]
    fn run_key_covers_declarations_and_test_summaries() {
        let reg = registry();
        let base = version(false);
        let key = run_key(&base, reg.rules());
        // Function bodies and test names unchanged, declarations not.
        let globals = "global sessions: map<int, Session>;";
        for (from, to) in [
            ("closing: bool }", "closing: bool, ttl: int }".to_string()),
            (globals, format!("{globals}\nglobal ttl: int;")),
        ] {
            let src = base.program.modules[0].source.replace(from, &to);
            let program = Program::parse_single("zk", &src).expect("parse");
            let other = SystemVersion::new(base.label.clone(), program, base.tests.clone());
            assert_ne!(key, run_key(&other, reg.rules()), "{to}");
        }
        let mut summarized = base.clone();
        summarized.tests[0].summary = "creates a node for a closing session".to_string();
        assert_ne!(key, run_key(&summarized, reg.rules()));
    }

    #[test]
    fn durable_run_resumes_and_reuses_verdicts() {
        let dir = tmpdir("resume");
        let reg = registry();
        let v = version(false);
        let gate = GateOptions::default();
        let durable = DurableOptions { state_dir: dir.clone(), ..DurableOptions::default() };
        let full = gate_durable(&reg, &v, &config(), &gate, &durable).expect("run");
        assert_eq!(full.decision, GateDecision::Block);
        assert_eq!(full.fresh, 2);
        assert_eq!(full.reused, 0);
        // Second run over the same state: everything is reused.
        let resumed = gate_durable(&reg, &v, &config(), &gate, &durable).expect("rerun");
        assert_eq!(resumed.reused, 2);
        assert_eq!(resumed.fresh, 0);
        assert_eq!(resumed.verdicts_text(), full.verdicts_text());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_with_retired_retries_fields_is_reused() {
        let dir = tmpdir("retries-field");
        let reg = registry();
        let v = version(false);
        let gate = GateOptions::default();
        let durable = DurableOptions { state_dir: dir.clone(), ..DurableOptions::default() };
        let full = gate_durable(&reg, &v, &config(), &gate, &durable).expect("run");
        // Rewrite the journal as schema 1 wrote it: every `check-finished`
        // record carries a trailing `retries` field.
        let wal = dir.join(RunStore::JOURNAL);
        let mut old = Vec::new();
        let mut rewritten = 0;
        for record in scan(&std::fs::read(&wal).expect("journal")).records {
            let mut fields = lisa_store::codec::decode(&record).expect("fields");
            if fields.iter().any(|(k, v)| k == "kind" && v == "check-finished") {
                fields.push(("retries".to_string(), "2".to_string()));
                rewritten += 1;
            }
            let refs: Vec<(&str, &str)> =
                fields.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            old.extend(lisa_store::journal::frame(&lisa_store::codec::encode(&refs)));
        }
        assert_eq!(rewritten, 2);
        std::fs::write(&wal, old).expect("write old journal");
        let resumed = gate_durable(&reg, &v, &config(), &gate, &durable).expect("rerun");
        assert_eq!((resumed.reused, resumed.fresh), (2, 0));
        assert_eq!(resumed.verdicts_text(), full.verdicts_text());
        assert_eq!(resumed.decision, full.decision);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_inputs_do_not_reuse_stale_verdicts() {
        let dir = tmpdir("stale");
        let reg = registry();
        let gate = GateOptions::default();
        let durable = DurableOptions { state_dir: dir.clone(), ..DurableOptions::default() };
        let blocked =
            gate_durable(&reg, &version(false), &config(), &gate, &durable).expect("run");
        assert_eq!(blocked.decision, GateDecision::Block);
        // Same state dir, fixed version: the journal is stale; no verdict
        // may leak across the run-key boundary.
        let passed =
            gate_durable(&reg, &version(true), &config(), &gate, &durable).expect("rerun");
        assert_eq!(passed.decision, GateDecision::Pass);
        assert_eq!(passed.reused, 0);
        assert_eq!(passed.fresh, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_stops_at_rule_boundary_and_preserves_resume() {
        let dir = tmpdir("cancel");
        let reg = registry();
        let v = version(false);
        let gate = GateOptions::default();
        // Cancel fires after the first rule settles: the run aborts at
        // the next boundary instead of finishing.
        let flag = Arc::new(AtomicBool::new(false));
        let trip = Arc::clone(&flag);
        let durable = DurableOptions {
            state_dir: dir.clone(),
            progress: Some(Arc::new(move || trip.store(true, Ordering::SeqCst))),
            cancel: Some(Arc::clone(&flag)),
            ..DurableOptions::default()
        };
        match gate_durable(&reg, &v, &config(), &gate, &durable) {
            Err(StoreError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The journal the cancelled attempt wrote stays valid: a clean
        // retry reuses the settled verdict.
        let resumed = gate_durable(
            &reg,
            &v,
            &config(),
            &gate,
            &DurableOptions { state_dir: dir.clone(), ..DurableOptions::default() },
        )
        .expect("resume after cancel");
        assert_eq!(resumed.reused, 1);
        assert_eq!(resumed.fresh, 1);
        assert_eq!(resumed.decision, GateDecision::Block);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_heartbeats_once_per_rule_including_reused() {
        let dir = tmpdir("heartbeat");
        let reg = registry();
        let v = version(false);
        let gate = GateOptions::default();
        let beats = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&beats);
        let durable = DurableOptions {
            state_dir: dir.clone(),
            progress: Some(Arc::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })),
            ..DurableOptions::default()
        };
        gate_durable(&reg, &v, &config(), &gate, &durable).expect("run");
        assert_eq!(beats.load(Ordering::SeqCst), 2, "one heartbeat per fresh rule");
        gate_durable(&reg, &v, &config(), &gate, &durable).expect("rerun");
        assert_eq!(beats.load(Ordering::SeqCst), 4, "reused rules heartbeat too");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_deadline_is_one_whole_run_deadline() {
        let dir = tmpdir("deadline");
        let gate = GateOptions { deadline: Some(Duration::ZERO), ..GateOptions::default() };
        let durable = DurableOptions { state_dir: dir.clone(), ..DurableOptions::default() };
        let report =
            gate_durable(&registry(), &version(false), &config(), &gate, &durable).expect("run");
        assert_eq!(report.fresh, 2);
        assert!(
            report.outcomes.iter().all(|o| o.unchecked && o.has_engine_error()),
            "no rule starts: {:?}",
            report.outcomes
        );
        // Fail-closed decides unchecked rules like engine errors.
        assert_eq!(report.decision, GateDecision::Block);
        assert_eq!(exit_code_of(report.decision, report.has_violation()), 2);
        let expired: Vec<&String> =
            report.warnings.iter().filter(|w| w.contains("gate deadline expired")).collect();
        assert_eq!(expired.len(), 1, "one deadline for the run: {:?}", report.warnings);
        assert!(expired[0].contains("2 rule(s) not checked"), "{expired:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_journaled_outcomes_are_checked_again_in_full() {
        let run = |dir: &PathBuf, gate: &GateOptions| {
            let durable = DurableOptions { state_dir: dir.clone(), ..DurableOptions::default() };
            gate_durable(&registry(), &version(false), &config(), gate, &durable).expect("run")
        };
        let dir = tmpdir("deadline-then-full");
        let expired = GateOptions { deadline: Some(Duration::ZERO), ..GateOptions::default() };
        let cut = run(&dir, &expired);
        assert!(cut.outcomes.iter().all(|o| o.unchecked), "no rule starts");
        // Journaled under the wire key `degraded`, as earlier releases
        // wrote a deadline-degraded outcome.
        let wal = std::fs::read(dir.join(RunStore::JOURNAL)).expect("wal");
        assert_eq!(String::from_utf8_lossy(&wal).matches("\tdegraded=1\t").count(), 2);

        let full = run(&dir, &GateOptions::default());
        assert_eq!((full.reused, full.fresh), (0, 2), "unchecked outcomes are not reused");
        assert!(full.outcomes.iter().all(|o| !o.unchecked), "{:?}", full.outcomes);

        // The same run in a fresh state dir decides identically, and a
        // third run now reuses the full outcomes.
        let fresh_dir = tmpdir("deadline-then-full-fresh");
        let fresh = run(&fresh_dir, &GateOptions::default());
        assert_eq!(full.decision, fresh.decision);
        assert_eq!(full.outcomes, fresh.outcomes);
        let again = run(&dir, &GateOptions::default());
        assert_eq!((again.reused, again.fresh), (2, 0));
        assert_eq!(again.outcomes, full.outcomes);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fresh_dir);
    }

    #[test]
    fn sanitize_cannot_collide_or_alias_the_state_root() {
        assert_eq!(sanitize("clean-id_1"), "clean-id_1");
        // Distinct raw ids must map to distinct state dirs even when
        // character replacement would merge them.
        assert_ne!(sanitize("a/b"), sanitize("a_b"));
        assert_ne!(sanitize("a/b"), sanitize("a.b"));
        // An empty id must not resolve to the state root itself.
        assert!(!sanitize("").is_empty());
        // Deterministic: a resubmitted job lands in the same dir.
        assert_eq!(sanitize("a/b"), sanitize("a/b"));
    }

    #[test]
    fn metrics_snapshot_restores_whole_or_not_at_all() {
        // Restoring adds the snapshot onto the live registry, so the
        // marker counter reads its value twice after one good restore.
        // Other tests in this binary may add counters meanwhile, but
        // never this one.
        let before = lisa_telemetry::config();
        lisa_telemetry::init(lisa_telemetry::TelemetryConfig::MetricsOnly);
        let marker = "test.metrics_snapshot.marker";
        lisa_telemetry::counter_add(marker, 7);
        let dir = tmpdir("metrics-snapshot");
        let mut path = Some(metrics_path(&dir));
        snapshot_metrics(&mut path);
        let path = path.expect("the snapshot was written");
        let whole = std::fs::read(&path).expect("snapshot file");
        restore_metrics(&path);
        assert_eq!(lisa_telemetry::counter_value(marker), 14, "restored once");
        for len in 0..whole.len() {
            std::fs::write(&path, &whole[..len]).expect("cut snapshot");
            restore_metrics(&path);
            assert_eq!(lisa_telemetry::counter_value(marker), 14, "cut to {len} bytes");
        }
        let _ = std::fs::remove_dir_all(&dir);
        lisa_telemetry::init(before);
    }
}
