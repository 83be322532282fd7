//! Multi-tenant admission control and weighted-fair queueing for the
//! serve daemon.
//!
//! Each tenant owns a bounded job queue and a per-tenant **stall
//! timeout** feeding the supervisor's heartbeat check. Nothing here
//! retries: a job whose worker panics or stalls is dead-lettered at
//! once, and the client decides whether to submit it again. Dequeue
//! order is stride scheduling over tenant
//! weights, so a noisy tenant with a deep backlog cannot starve a quiet
//! one: a freshly backlogged tenant re-enters at the scheduler's
//! current virtual time and is served within ~one weighted turn.
//!
//! The container is generic over the job type so it stays free of the
//! daemon's socket machinery and unit-testable in isolation.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::time::Duration;

/// Upper bound on client-supplied job ids. Past it the daemon answers a
/// structured bad-request instead of letting `sanitize()` mint
/// pathological state-dir names and bloat the busy-dirs set.
pub const MAX_JOB_ID_LEN: usize = 128;

/// Tenant names are identifiers: bounded, filesystem- and JSON-safe,
/// and cheap to embed in telemetry keys.
pub const MAX_TENANT_LEN: usize = 32;

/// Hard cap on distinct tenants a daemon will track. Auto-registration
/// past it is refused with a structured error — an attacker spraying
/// tenant names must not grow unbounded per-tenant state.
pub const MAX_TENANTS: usize = 64;

/// Stride-scheduling scale: `stride = STRIDE1 / weight`.
const STRIDE1: u64 = 1 << 20;

/// A tenant name is valid when it is a short identifier. Keeping the
/// charset tight bounds telemetry-key cardinality and keeps the name
/// safe to print un-escaped in JSON and logs.
pub fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_LEN
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// One `--tenants` entry: `name[:weight[:timeout_ms]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    pub name: String,
    pub weight: u64,
    pub job_timeout: Option<Duration>,
}

/// Parse a `--tenants` spec: comma-separated `name[:weight[:timeout_ms]]`
/// entries, e.g. `ci:4,batch:2:60000,adhoc`.
pub fn parse_tenant_specs(spec: &str) -> Result<Vec<TenantSpec>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let mut parts = entry.split(':');
        let name = parts.next().unwrap_or("").to_string();
        if !valid_tenant(&name) {
            return Err(format!(
                "tenant name {name:?}: must be 1..={MAX_TENANT_LEN} chars of [A-Za-z0-9_-]"
            ));
        }
        let weight = match parts.next() {
            None | Some("") => 1,
            Some(w) => w
                .parse::<u64>()
                .ok()
                .filter(|w| (1..=100).contains(w))
                .ok_or_else(|| format!("tenant {name}: weight {w:?} must be 1..=100"))?,
        };
        let job_timeout = match parts.next() {
            None | Some("") => None,
            Some(t) => Some(Duration::from_millis(
                t.parse::<u64>()
                    .ok()
                    .filter(|t| *t > 0)
                    .ok_or_else(|| format!("tenant {name}: timeout_ms {t:?} must be > 0"))?,
            )),
        };
        if parts.next().is_some() {
            return Err(format!("tenant {name}: too many `:` fields (name[:weight[:timeout_ms]])"));
        }
        if out.iter().any(|s: &TenantSpec| s.name == name) {
            return Err(format!("tenant {name}: listed twice"));
        }
        out.push(TenantSpec { name, weight, job_timeout });
    }
    if out.len() > MAX_TENANTS {
        return Err(format!("{} tenants listed; the daemon tracks at most {MAX_TENANTS}", out.len()));
    }
    Ok(out)
}

/// Per-tenant queue, scheduler position, quota, and counters.
#[derive(Debug)]
pub struct Tenant<J> {
    pub weight: u64,
    stride: u64,
    /// Stride-scheduler position; lowest backlogged pass dequeues next.
    pass: u64,
    queue: VecDeque<J>,
    /// Explicit queue bound; 0 = weight-proportional share of the
    /// global cap, recomputed as tenants register.
    pub cap: usize,
    pub job_timeout: Duration,
    /// Jobs currently held by workers on this tenant's behalf.
    pub active: usize,
    pub done: u64,
    pub shed: u64,
    pub dead_letters: u64,
}

impl<J> Tenant<J> {
    fn new(weight: u64, cap: usize, job_timeout: Duration) -> Tenant<J> {
        Tenant {
            weight,
            stride: STRIDE1 / weight.clamp(1, 100),
            pass: 0,
            queue: VecDeque::new(),
            cap,
            job_timeout,
            active: 0,
            done: 0,
            shed: 0,
            dead_letters: 0,
        }
    }

    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// Why a submission was shed instead of queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The global queue (sum over tenants) is at capacity.
    GlobalSaturated,
    /// This tenant's own bounded queue is at capacity.
    TenantSaturated,
}

impl ShedReason {
    pub fn as_str(&self) -> &'static str {
        match self {
            ShedReason::GlobalSaturated => "global queue saturated",
            ShedReason::TenantSaturated => "tenant queue saturated",
        }
    }
}

/// Admission verdict. Shed and refused submissions hand the job back so
/// the caller can reclaim its response stream.
pub enum Admitted<J> {
    Queued,
    Shed { job: J, retry_after_ms: u64, reason: ShedReason },
    Refused { job: J, error: String },
}

/// Weighted-fair, bounded, multi-tenant job queues.
pub struct FairQueues<J> {
    tenants: BTreeMap<String, Tenant<J>>,
    queued_total: usize,
    global_cap: usize,
    /// Explicit per-tenant cap; 0 = weight-proportional share.
    tenant_cap: usize,
    default_timeout: Duration,
    workers: u64,
    /// Scheduler virtual time: the pass of the most recent dequeue. A
    /// tenant going from empty to backlogged re-enters here, not at its
    /// stale historical pass (which would let it monopolize) nor ahead
    /// (which would starve it).
    virtual_time: u64,
    /// EWMA of completed-job wall time, feeding `retry_after_ms`.
    mean_job_ms: u64,
}

impl<J> FairQueues<J> {
    pub fn new(
        specs: &[TenantSpec],
        global_cap: usize,
        tenant_cap: usize,
        default_timeout: Duration,
        workers: usize,
    ) -> FairQueues<J> {
        let mut q = FairQueues {
            tenants: BTreeMap::new(),
            queued_total: 0,
            global_cap: global_cap.max(1),
            tenant_cap,
            default_timeout,
            workers: workers.max(1) as u64,
            virtual_time: 0,
            mean_job_ms: 100,
        };
        for spec in specs {
            q.tenants.insert(
                spec.name.clone(),
                Tenant::new(spec.weight, tenant_cap, spec.job_timeout.unwrap_or(default_timeout)),
            );
        }
        q
    }

    pub fn queued_total(&self) -> usize {
        self.queued_total
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Tenant<J>)> {
        self.tenants.iter()
    }

    fn total_weight(&self) -> u64 {
        self.tenants.values().map(|t| t.weight).sum::<u64>().max(1)
    }

    /// Effective queue bound for one tenant: explicit cap, or its
    /// weight-proportional share of the global cap (at least 1, so a
    /// quiet low-weight tenant can always queue something).
    fn effective_cap(&self, tenant: &Tenant<J>) -> usize {
        if tenant.cap > 0 {
            return tenant.cap;
        }
        (self.global_cap as u64 * tenant.weight / self.total_weight()).max(1) as usize
    }

    /// How long a shed client should wait before retrying: the time the
    /// backlog ahead of it needs to drain through the worker pool,
    /// clamped to something a polite client can actually honor.
    fn retry_after_ms(&self, depth_ahead: usize) -> u64 {
        ((depth_ahead as u64 + 1) * self.mean_job_ms / self.workers).clamp(50, 30_000)
    }

    /// Admit a job for `tenant`, auto-registering unknown tenants at
    /// weight 1 (up to [`MAX_TENANTS`]).
    pub fn admit(&mut self, tenant: &str, job: J) -> Admitted<J> {
        if !self.tenants.contains_key(tenant) {
            if self.tenants.len() >= MAX_TENANTS {
                return Admitted::Refused {
                    job,
                    error: format!("too many tenants (max {MAX_TENANTS}); reuse an existing one"),
                };
            }
            self.tenants.insert(
                tenant.to_string(),
                Tenant::new(1, self.tenant_cap, self.default_timeout),
            );
        }
        if self.queued_total >= self.global_cap {
            let retry = self.retry_after_ms(self.queued_total);
            let t = self.tenants.get_mut(tenant).expect("registered above");
            t.shed += 1;
            return Admitted::Shed { job, retry_after_ms: retry, reason: ShedReason::GlobalSaturated };
        }
        let cap = self.effective_cap(&self.tenants[tenant]);
        let vt = self.virtual_time;
        let t = self.tenants.get_mut(tenant).expect("registered above");
        if t.queue.len() >= cap {
            t.shed += 1;
            let depth = t.queue.len();
            let retry = self.retry_after_ms(depth);
            return Admitted::Shed { job, retry_after_ms: retry, reason: ShedReason::TenantSaturated };
        }
        if t.queue.is_empty() {
            // Re-enter the stride schedule at current virtual time.
            t.pass = t.pass.max(vt);
        }
        t.queue.push_back(job);
        self.queued_total += 1;
        Admitted::Queued
    }

    /// Dequeue the next job under weighted fairness: among tenants with
    /// at least one `dequeuable` job, pick the lowest stride pass, pop
    /// that tenant's first dequeuable job, and charge its pass. Jobs
    /// failing `dequeuable` (busy state dirs) are skipped in place. The
    /// job comes back with its tenant's stall timeout, so the supervisor
    /// reads the timeout from the worker's slot, never from the queue.
    pub fn pop(&mut self, dequeuable: impl Fn(&J) -> bool) -> Option<(J, Duration)> {
        let mut best: Option<(&mut Tenant<J>, usize)> = None;
        for t in self.tenants.values_mut() {
            if best.as_ref().is_some_and(|(b, _)| b.pass <= t.pass) {
                continue;
            }
            if let Some(idx) = t.queue.iter().position(&dequeuable) {
                best = Some((t, idx));
            }
        }
        let (t, idx) = best?;
        let job = t.queue.remove(idx).expect("indexed job");
        self.virtual_time = t.pass;
        t.pass += t.stride;
        t.active += 1;
        self.queued_total -= 1;
        Some((job, t.job_timeout))
    }

    /// A worker settled a job for `tenant` (reply sent). `elapsed_ms`
    /// feeds the shed-retry estimate.
    pub fn settle(&mut self, tenant: &str, elapsed_ms: u64) {
        self.mean_job_ms = (self.mean_job_ms * 7 + elapsed_ms.max(1)) / 8;
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.active = t.active.saturating_sub(1);
            t.done += 1;
        }
    }

    /// The supervisor dead-lettered this tenant's in-flight job, taken
    /// from a panicked or stalled worker; it is no longer active.
    pub fn dead_letter(&mut self, tenant: &str) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.active = t.active.saturating_sub(1);
            t.dead_letters += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues(specs: &str, global_cap: usize) -> FairQueues<u32> {
        FairQueues::new(
            &parse_tenant_specs(specs).expect("spec"),
            global_cap,
            0,
            Duration::from_secs(30),
            2,
        )
    }

    #[test]
    fn spec_parsing_accepts_weights_and_timeouts() {
        let specs = parse_tenant_specs("ci:4,batch:2:60000,adhoc").expect("parses");
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0], TenantSpec { name: "ci".into(), weight: 4, job_timeout: None });
        assert_eq!(specs[1].job_timeout, Some(Duration::from_millis(60_000)));
        assert_eq!(specs[2].weight, 1);
        assert!(parse_tenant_specs("bad name:1").is_err(), "space in name");
        assert!(parse_tenant_specs("x:0").is_err(), "zero weight");
        assert!(parse_tenant_specs("x:1:0").is_err(), "zero timeout");
        assert!(parse_tenant_specs("x:1:2:3").is_err(), "too many fields");
        assert!(parse_tenant_specs("x,x").is_err(), "duplicate");
        assert!(parse_tenant_specs("").expect("empty ok").is_empty());
    }

    #[test]
    fn tenant_names_are_validated() {
        assert!(valid_tenant("ci-prod_1"));
        assert!(!valid_tenant(""));
        assert!(!valid_tenant("a b"));
        assert!(!valid_tenant(&"x".repeat(MAX_TENANT_LEN + 1)));
    }

    #[test]
    fn weighted_dequeue_tracks_weights() {
        let mut q = queues("heavy:3,light:1", 1000);
        for i in 0..80u32 {
            assert!(matches!(q.admit("heavy", i), Admitted::Queued));
            assert!(matches!(q.admit("light", 100 + i), Admitted::Queued));
        }
        let mut heavy = 0;
        let mut light = 0;
        for _ in 0..40 {
            // Heavy jobs are numbered below 100, light ones from 100.
            match q.pop(|_| true).expect("job").0 {
                0..100 => heavy += 1,
                _ => light += 1,
            }
        }
        // Stride scheduling: of 40 dequeues, ~30 heavy / ~10 light.
        assert!((28..=32).contains(&heavy), "heavy got {heavy}/40");
        assert!((8..=12).contains(&light), "light got {light}/40");
    }

    #[test]
    fn backlogged_newcomer_is_not_starved() {
        let mut q = queues("noisy:1,quiet:1", 1000);
        for i in 0..50u32 {
            assert!(matches!(q.admit("noisy", i), Admitted::Queued));
        }
        // Drain a while: the noisy tenant's pass advances.
        for _ in 0..20 {
            assert!(q.pop(|_| true).expect("job").0 < 50, "a noisy job");
        }
        // A quiet job arriving now re-enters at virtual time and must be
        // served within two dequeues, not after the noisy backlog.
        assert!(matches!(q.admit("quiet", 999), Admitted::Queued));
        let order: Vec<u32> = (0..2).filter_map(|_| q.pop(|_| true)).map(|(j, _)| j).collect();
        assert!(order.contains(&999), "quiet starved: {order:?}");
    }

    #[test]
    fn caps_shed_with_retry_hint_and_count() {
        let mut q = queues("a:1,b:1", 4);
        // Per-tenant share of the global cap: 4 * 1/2 = 2 each.
        assert!(matches!(q.admit("a", 1), Admitted::Queued));
        assert!(matches!(q.admit("a", 2), Admitted::Queued));
        match q.admit("a", 3) {
            Admitted::Shed { job, retry_after_ms, reason } => {
                assert_eq!(job, 3, "shed hands the job back");
                assert!(retry_after_ms >= 50);
                assert_eq!(reason, ShedReason::TenantSaturated);
            }
            _ => panic!("expected tenant-cap shed"),
        }
        // b can still queue: a's overflow never ate b's share.
        assert!(matches!(q.admit("b", 4), Admitted::Queued));
        assert!(matches!(q.admit("b", 5), Admitted::Queued));
        match q.admit("b", 6) {
            Admitted::Shed { reason, .. } => assert_eq!(reason, ShedReason::GlobalSaturated),
            _ => panic!("expected global shed at cap 4"),
        }
        assert_eq!(q.iter().map(|(_, t)| t.shed).sum::<u64>(), 2);
        assert_eq!(q.queued_total(), 4);
    }

    #[test]
    fn settle_and_dead_letter_track_active() {
        let mut q = queues("t:1", 100);
        for i in 0..2u32 {
            assert!(matches!(q.admit("t", i), Admitted::Queued));
        }
        let _ = q.pop(|_| true).expect("job");
        let _ = q.pop(|_| true).expect("job");
        assert_eq!(q.iter().next().expect("t").1.active, 2);
        q.settle("t", 120);
        q.dead_letter("t");
        let t = q.iter().next().expect("t").1;
        assert_eq!(t.active, 0);
        assert_eq!(t.done, 1);
        assert_eq!(t.dead_letters, 1);
    }

    #[test]
    fn a_popped_job_carries_its_tenant_stall_timeout() {
        let mut q = queues("slow:1:60000", 100);
        assert!(matches!(q.admit("slow", 1), Admitted::Queued));
        assert!(matches!(q.admit("adhoc", 2), Admitted::Queued));
        let mut popped: Vec<(u32, Duration)> = (0..2).filter_map(|_| q.pop(|_| true)).collect();
        popped.sort();
        assert_eq!(
            popped,
            [(1, Duration::from_millis(60_000)), (2, Duration::from_secs(30))],
            "the roster's timeout, else the daemon default"
        );
    }

    #[test]
    fn busy_jobs_are_skipped_in_place() {
        let mut q = queues("t:1", 100);
        for i in 0..3u32 {
            assert!(matches!(q.admit("t", i), Admitted::Queued));
        }
        // Job 0 is "busy" (its state dir is held): the pop takes job 1.
        let (job, _) = q.pop(|j| *j != 0).expect("job");
        assert_eq!(job, 1);
        // Released: job 0 dequeues next, order preserved.
        let (job, _) = q.pop(|_| true).expect("job");
        assert_eq!(job, 0);
    }

    #[test]
    fn unknown_tenants_auto_register_up_to_the_cap() {
        let mut q = queues("", 10_000);
        for i in 0..MAX_TENANTS {
            assert!(matches!(q.admit(&format!("t{i}"), 0), Admitted::Queued));
        }
        match q.admit("one-too-many", 0) {
            Admitted::Refused { error, .. } => assert!(error.contains("too many tenants")),
            _ => panic!("tenant table must be bounded"),
        }
    }
}
