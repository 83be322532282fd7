//! Seeded fault injection for the enforcement gate.
//!
//! Resilience claims need evidence: this module lets tests and the E10
//! experiment deliberately break the pipeline at chosen points — panic a
//! rule check, exhaust the solver budget, hand the gate a malformed
//! condition, or stall a stage — and then assert that `enforce` still
//! returns a complete report with the damage confined to the faulted
//! rule. The disk side ([`DiskFaultInjector`]) plugs into `lisa-store`'s
//! I/O seams to break the durability layer the same way — torn writes,
//! short reads, ENOSPC, fsync failures — for the E11 crash-recovery
//! experiment. Plans are seeded and deterministic so every failure
//! reproduces.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use lisa_store::{IoFault, IoFaults};
use lisa_util::{Fnv1a, Prng};

/// Panic payloads carry this prefix so the gate can tell injected faults
/// apart from genuine engine bugs when classifying the unwind payload.
pub const FAULT_PANIC_PREFIX: &str = "lisa-fault:";
/// Payload marker for faults that should be retried.
pub const TRANSIENT_MARKER: &str = "lisa-fault: transient";

/// What to break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the rule check on every attempt.
    Panic,
    /// Panic the first attempt only; retries succeed. Exercises the
    /// retry-with-backoff path.
    TransientPanic,
    /// Force the solver conflict budget to zero for this rule, so every
    /// violation query returns Unknown and chains degrade to not-covered.
    SolverExhaustion,
    /// Corrupt the rule's condition source so it no longer parses,
    /// modelling malformed oracle output.
    MalformedCondition,
    /// Sleep inside the rule check, modelling a slow stage; with a gate
    /// deadline set this pushes later rules into degraded mode.
    Stall,
}

const ALL_KINDS: [FaultKind; 5] = [
    FaultKind::Panic,
    FaultKind::TransientPanic,
    FaultKind::SolverExhaustion,
    FaultKind::MalformedCondition,
    FaultKind::Stall,
];

/// A deterministic assignment of faults to rule ids.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    injections: Vec<(String, FaultKind)>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder: inject `kind` when the gate checks `rule_id`.
    pub fn inject(mut self, rule_id: impl Into<String>, kind: FaultKind) -> FaultPlan {
        self.injections.push((rule_id.into(), kind));
        self
    }

    /// Seeded random plan: each rule id independently draws a fault with
    /// probability `rate`, and a uniformly random kind when it does.
    pub fn random(seed: u64, rate: f64, rule_ids: &[String]) -> FaultPlan {
        let mut rng = Prng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for id in rule_ids {
            if rng.gen_bool(rate) {
                let kind = *rng.pick(&ALL_KINDS);
                plan = plan.inject(id.clone(), kind);
            }
        }
        plan
    }

    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    pub fn len(&self) -> usize {
        self.injections.len()
    }

    fn fault_for(&self, rule_id: &str) -> Option<FaultKind> {
        self.injections.iter().find(|(id, _)| id == rule_id).map(|&(_, k)| k)
    }

    /// Feed each injection's rule id and kind, in order, into `h`: part
    /// of a durable run's journal key, so a faulted run's verdicts never
    /// answer a clean one. An empty plan feeds nothing.
    pub(crate) fn hash_into(&self, h: &mut Fnv1a) {
        for (id, kind) in &self.injections {
            h.part(id.as_bytes()).part_display(format_args!("{kind:?}"));
        }
    }
}

/// Runtime side of a plan: tracks per-rule attempts so transient faults
/// clear on retry. Shared across gate worker threads.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// How long a [`FaultKind::Stall`] sleeps.
    pub stall: Duration,
    attempts: Mutex<HashMap<String, u32>>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan, stall: Duration::from_millis(25), attempts: Mutex::new(HashMap::new()) }
    }

    /// Record an attempt at `rule_id` and return the fault to apply, if
    /// any. Transient faults fire on the first attempt only.
    pub fn arm(&self, rule_id: &str) -> Option<FaultKind> {
        let kind = self.plan.fault_for(rule_id)?;
        let mut attempts = self.attempts.lock().unwrap_or_else(|p| p.into_inner());
        let n = attempts.entry(rule_id.to_string()).or_insert(0);
        let attempt = *n;
        *n += 1;
        match kind {
            FaultKind::TransientPanic if attempt > 0 => None,
            k => Some(k),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Attempts recorded for `rule_id` so far.
    pub fn attempts(&self, rule_id: &str) -> u32 {
        self.attempts
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(rule_id)
            .copied()
            .unwrap_or(0)
    }
}

/// Which disk fault to inject at one of the store's I/O seams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// An append crashes mid-write: only a prefix of the frame reaches
    /// the disk (the classic torn write the journal checksum catches).
    TornWrite,
    /// The journal file reads back incompletely on open, as after a
    /// truncated restore.
    ShortRead,
    /// The device is out of space; nothing is written.
    Enospc,
    /// Data was written but fsync reports failure, so durability of the
    /// record is unknown.
    FsyncFail,
}

pub const ALL_DISK_KINDS: [DiskFaultKind; 4] = [
    DiskFaultKind::TornWrite,
    DiskFaultKind::ShortRead,
    DiskFaultKind::Enospc,
    DiskFaultKind::FsyncFail,
];

#[derive(Debug)]
struct DiskFaultState {
    rng: Prng,
    budget: u32,
    fired: Vec<DiskFaultKind>,
}

/// Seeded, budgeted disk-fault injector implementing `lisa-store`'s
/// [`IoFaults`] seam.
///
/// Each store I/O operation independently draws a fault with probability
/// `rate` from the kinds applicable to that seam, until `budget` faults
/// have fired. The budget keeps a faulted run meaningful: a store that
/// fails every append forever just disables journaling (correctly), which
/// is a different property than crash recovery under intermittent faults.
#[derive(Debug)]
pub struct DiskFaultInjector {
    kinds: Vec<DiskFaultKind>,
    rate: f64,
    state: Mutex<DiskFaultState>,
}

impl DiskFaultInjector {
    pub fn new(seed: u64, rate: f64, kinds: &[DiskFaultKind], budget: u32) -> DiskFaultInjector {
        DiskFaultInjector {
            kinds: kinds.to_vec(),
            rate,
            state: Mutex::new(DiskFaultState {
                rng: Prng::seed_from_u64(seed),
                budget,
                fired: Vec::new(),
            }),
        }
    }

    /// A whole fault *plan* derived from one seed: random non-empty kind
    /// subset, rate in [0.1, 0.5], budget in [1, 4]. E11 runs twenty of
    /// these.
    pub fn random(seed: u64) -> DiskFaultInjector {
        let mut rng = Prng::seed_from_u64(seed);
        let mut kinds: Vec<DiskFaultKind> =
            ALL_DISK_KINDS.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        if kinds.is_empty() {
            kinds.push(*rng.pick(&ALL_DISK_KINDS));
        }
        let rate = 0.1 + 0.4 * rng.gen_f64();
        let budget = 1 + rng.gen_index(4) as u32;
        let state_seed = rng.next_u64();
        DiskFaultInjector::new(state_seed, rate, &kinds, budget)
    }

    /// Kinds that actually fired so far, in order.
    pub fn fired(&self) -> Vec<DiskFaultKind> {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).fired.clone()
    }

    /// Draw a fault for a seam that supports `applicable` kinds. Returns
    /// the kind plus an auxiliary random draw (for torn/short lengths).
    fn draw(&self, applicable: &[DiskFaultKind]) -> Option<(DiskFaultKind, u64)> {
        let enabled: Vec<DiskFaultKind> =
            applicable.iter().copied().filter(|k| self.kinds.contains(k)).collect();
        if enabled.is_empty() {
            return None;
        }
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.budget == 0 || !st.rng.gen_bool(self.rate) {
            return None;
        }
        st.budget -= 1;
        let kind = *st.rng.pick(&enabled);
        let aux = st.rng.next_u64();
        st.fired.push(kind);
        Some((kind, aux))
    }
}

impl IoFaults for DiskFaultInjector {
    fn on_append(&self, len: usize) -> Option<IoFault> {
        let (kind, aux) = self.draw(&[DiskFaultKind::TornWrite, DiskFaultKind::Enospc])?;
        Some(match kind {
            DiskFaultKind::TornWrite => IoFault::Torn { keep: aux as usize % len.max(1) },
            _ => IoFault::Enospc,
        })
    }

    fn on_sync(&self) -> Option<IoFault> {
        self.draw(&[DiskFaultKind::FsyncFail]).map(|_| IoFault::FsyncFail)
    }

    fn on_open_read(&self, len: usize) -> Option<IoFault> {
        let (_, aux) = self.draw(&[DiskFaultKind::ShortRead])?;
        Some(IoFault::ShortRead { keep: aux as usize % (len + 1) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_targets_only_named_rules() {
        let inj = FaultInjector::new(FaultPlan::new().inject("R1", FaultKind::Panic));
        assert_eq!(inj.arm("R1"), Some(FaultKind::Panic));
        assert_eq!(inj.arm("R2"), None);
        // Non-transient faults fire every attempt.
        assert_eq!(inj.arm("R1"), Some(FaultKind::Panic));
        assert_eq!(inj.attempts("R1"), 2);
    }

    #[test]
    fn transient_fault_clears_on_second_attempt() {
        let inj = FaultInjector::new(FaultPlan::new().inject("R", FaultKind::TransientPanic));
        assert_eq!(inj.arm("R"), Some(FaultKind::TransientPanic));
        assert_eq!(inj.arm("R"), None);
        assert_eq!(inj.arm("R"), None);
    }

    #[test]
    fn random_plan_is_deterministic_in_the_seed() {
        let ids: Vec<String> = (0..32).map(|i| format!("R{i}")).collect();
        let a = FaultPlan::random(7, 0.5, &ids);
        let b = FaultPlan::random(7, 0.5, &ids);
        assert_eq!(a.injections, b.injections);
        assert!(!a.is_empty(), "rate 0.5 over 32 rules should hit something");
        let c = FaultPlan::random(8, 0.5, &ids);
        assert_ne!(a.injections, c.injections, "different seed, different plan");
    }

    #[test]
    fn zero_rate_plan_is_empty() {
        let ids: Vec<String> = (0..8).map(|i| format!("R{i}")).collect();
        assert!(FaultPlan::random(1, 0.0, &ids).is_empty());
    }

    #[test]
    fn disk_injector_respects_budget_and_seam_applicability() {
        let inj = DiskFaultInjector::new(7, 1.0, &[DiskFaultKind::TornWrite], 2);
        // TornWrite applies to appends only; sync/read seams never fire.
        assert!(inj.on_sync().is_none());
        assert!(inj.on_open_read(100).is_none());
        let first = inj.on_append(64);
        assert!(matches!(first, Some(IoFault::Torn { keep }) if keep < 64), "{first:?}");
        assert!(inj.on_append(64).is_some());
        assert!(inj.on_append(64).is_none(), "budget of 2 exhausted");
        assert_eq!(inj.fired().len(), 2);
    }

    #[test]
    fn disk_plan_is_deterministic_in_the_seed() {
        for seed in 0..20 {
            let a = DiskFaultInjector::random(seed);
            let b = DiskFaultInjector::random(seed);
            for _ in 0..10 {
                // Identical draw sequences step the PRNGs identically.
                assert_eq!(
                    format!("{:?}", a.on_append(32)),
                    format!("{:?}", b.on_append(32)),
                    "seed {seed}"
                );
                assert_eq!(format!("{:?}", a.on_sync()), format!("{:?}", b.on_sync()));
            }
            assert_eq!(a.fired(), b.fired());
        }
    }
}
