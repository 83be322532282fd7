//! The `Gate` facade: one builder for every way of running the gate.
//!
//! Historically the gate grew a free function per concern —
//! `enforce(registry, version, config, workers)`, then
//! `enforce_with(..., options)` — and every new capability (caching,
//! here) would have meant another positional parameter on every call
//! site. [`Gate`] replaces that with a builder:
//!
//! ```text
//! Gate::new(&registry)
//!     .config(cfg)
//!     .workers(4)
//!     .options(opts)
//!     .cache(&cache)
//!     .run(&version)
//! ```
//!
//! The old functions lived on for a while as `#[deprecated]` thin
//! wrappers and are now gone; [`Gate`] is the only entry point.
//!
//! This module also holds the two supporting pieces of the facade:
//!
//! - [`GateCache`] — the rule-report memo a `Gate` can be handed. One
//!   `GateCache` shared across runs is what makes re-gating an unchanged
//!   version cheap; dropping it is the only invalidation anyone needs.
//! - [`GateConfig`] — the CLI-facing configuration: every knob the
//!   `lisa` binary exposes, parsed from flags in exactly one place
//!   ([`GateConfig::from_args`]) and consumed by `lisa gate`,
//!   `lisa serve`, and the durable gate alike.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lisa_concolic::SystemVersion;
use lisa_util::{lock_counted, CacheStats, LockStats};

use crate::enforce::{enforce_impl, EnforcementReport, FailMode, GateOptions, RuleRegistry};
use crate::faults::{FaultInjector, FaultPlan};
use crate::pipeline::{PipelineConfig, ResourceBudgets, TestSelection};
use crate::verdict::RuleReport;

/// The rule-report memo a gate can be handed: one whole [`RuleReport`]
/// per rule check, keyed by a content hash of everything the check reads
/// (see [`crate::Pipeline::with_cache`]). Share one instance (behind
/// `Arc`) across runs and re-gating an unchanged version answers every
/// rule from the memo. A hit is a clone of the report the check
/// produced, so a cached gate renders byte-identical output to an
/// uncached one.
#[derive(Debug)]
pub struct GateCache {
    /// Locked for one get or one insert, never across a check.
    reports: Mutex<HashMap<u64, Arc<RuleReport>>>,
    locks: LockStats,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Counter values already published to telemetry, so repeated
    /// publishes add deltas instead of re-adding totals.
    published: Mutex<BTreeMap<String, u64>>,
}

impl Default for GateCache {
    fn default() -> Self {
        GateCache::new()
    }
}

impl GateCache {
    pub fn new() -> GateCache {
        GateCache {
            reports: Mutex::new(HashMap::new()),
            locks: LockStats::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            published: Mutex::new(BTreeMap::new()),
        }
    }

    /// The report memoized under `key`, counting the lookup as a hit or
    /// a miss.
    pub(crate) fn get(&self, key: u64) -> Option<Arc<RuleReport>> {
        let found = lock_counted(&self.reports, &self.locks).get(&key).cloned();
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    pub(crate) fn insert(&self, key: u64, report: RuleReport) {
        lock_counted(&self.reports, &self.locks).insert(key, Arc::new(report));
    }

    /// Per-tier [`CacheStats`] snapshots, in telemetry tier order. The
    /// memo is the only tier, named `rule`. Its `entries` lock is not
    /// counted, so a snapshot never moves the lock counters it reports.
    pub fn tier_stats(&self) -> [(&'static str, CacheStats); 1] {
        let entries = self.reports.lock().unwrap_or_else(|p| p.into_inner()).len();
        [(
            "rule",
            CacheStats {
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
                lock_acquires: self.locks.acquires(),
                lock_contended: self.locks.contended(),
                lock_wait_ns: self.locks.wait_ns(),
                entries: entries as u64,
            },
        )]
    }

    /// Rule checks answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Memo lookups that ran the check.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Push cache counters into the telemetry registry (no-op unless
    /// metrics are enabled). Publishes deltas since the previous call, so
    /// the telemetry counters track cumulative totals no matter how many
    /// gate runs share this cache. Counter names are
    /// `cache.<tier>.<suffix>` for every suffix in
    /// [`CacheStats::counters`]; zero-valued counters are elided.
    pub fn publish_metrics(&self) {
        if !lisa_telemetry::metrics_enabled() {
            return;
        }
        let mut published = self.published.lock().unwrap_or_else(|e| e.into_inner());
        for (tier, stats) in self.tier_stats() {
            for (suffix, total) in stats.counters() {
                let name = format!("cache.{tier}.{suffix}");
                let prev = published.get(&name).copied().unwrap_or(0);
                if total > prev {
                    lisa_telemetry::counter_add(&name, total - prev);
                    published.insert(name, total);
                }
            }
        }
    }
}

/// Builder facade over the enforcement gate. `Gate::new(&registry)` with
/// no further configuration is equivalent to the old
/// `enforce(registry, version, &PipelineConfig::default(), 1)`.
#[derive(Debug)]
pub struct Gate<'r> {
    registry: &'r RuleRegistry,
    config: PipelineConfig,
    workers: usize,
    options: GateOptions,
    cache: Option<Arc<GateCache>>,
}

impl<'r> Gate<'r> {
    pub fn new(registry: &'r RuleRegistry) -> Gate<'r> {
        Gate {
            registry,
            config: PipelineConfig::default(),
            workers: 1,
            options: GateOptions::default(),
            cache: None,
        }
    }

    /// Pipeline configuration (test selection, tree limits, budgets).
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Worker width: rules are checked in parallel, one task per rule,
    /// on up to this many threads (never more than there are rules). `0`
    /// means auto: one worker per available hardware thread (see
    /// [`crate::resolve_workers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Resilience options (fail mode, deadline, faults).
    pub fn options(mut self, options: GateOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach a shared cache. The same `GateCache` can back many gates;
    /// its reports are keyed by content, never by version label.
    pub fn cache(mut self, cache: &Arc<GateCache>) -> Self {
        self.cache = Some(Arc::clone(cache));
        self
    }

    /// Check every registered rule against `version`. Takes `&self` so
    /// one configured gate can judge a whole sequence of versions.
    pub fn run(&self, version: &SystemVersion) -> EnforcementReport {
        enforce_impl(
            self.registry,
            version,
            &self.config,
            self.workers,
            &self.options,
            self.cache.as_ref(),
            None,
        )
    }
}

/// Everything the `lisa` CLI can configure about a gate run, parsed from
/// flags in one place instead of being re-threaded per subcommand.
#[derive(Debug)]
pub struct GateConfig {
    pub pipeline: PipelineConfig,
    pub workers: usize,
    pub fail_mode: FailMode,
    pub deadline: Option<Duration>,
    pub fault_seed: Option<u64>,
    pub fault_rate: f64,
    /// Whether the run gets a [`GateCache`].
    pub cache: bool,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            pipeline: PipelineConfig::default(),
            // 0 = auto: resolve to the machine's available parallelism.
            workers: 0,
            fail_mode: FailMode::default(),
            deadline: None,
            fault_seed: None,
            fault_rate: 1.0,
            cache: true,
        }
    }
}

impl GateConfig {
    /// The flags [`GateConfig::from_args`] reads into
    /// [`GateConfig::pipeline`].
    pub const PIPELINE_FLAGS: &'static [&'static str] =
        &["rag", "test-prefix", "max-solver-conflicts"];

    /// Every flag [`GateConfig::from_args`] reads.
    pub const FLAGS: &'static [&'static str] = &[
        "rag", "test-prefix", "max-solver-conflicts", "workers", "fail-mode", "deadline-ms",
        "fault-seed", "fault-rate", "cache",
    ];

    /// Parse the gate-relevant CLI flags (as produced by the `lisa`
    /// binary's flag parser: `--name value` pairs in a map). Flags:
    ///
    /// - `--rag <k>` — RAG top-k test selection (default: all tests)
    /// - `--test-prefix <p>` — test entry-point prefix (default `test_`)
    /// - `--workers <n|auto>` — rule-level worker width; `auto` (or `0`)
    ///   sizes to the machine's available parallelism (default auto)
    /// - `--fail-mode closed|open`
    /// - `--deadline-ms <n>` — gate deadline: rules dequeued after it
    ///   are reported not checked
    /// - `--max-solver-conflicts <n>` — SAT conflict budget per query
    /// - `--fault-seed <n>` / `--fault-rate <f>` — chaos drill
    /// - `--cache on|off` — the rule-report memo (default on)
    ///
    /// These are exactly [`GateConfig::FLAGS`].
    pub fn from_args(flags: &HashMap<String, String>) -> Result<GateConfig, String> {
        fn num<T: std::str::FromStr>(
            flags: &HashMap<String, String>,
            name: &str,
        ) -> Result<Option<T>, String> {
            flags
                .get(name)
                .map(|v| v.parse::<T>().map_err(|_| format!("--{name} {v}: not a number")))
                .transpose()
        }
        let defaults = GateConfig::default();
        let selection = match num::<usize>(flags, "rag")? {
            Some(k) => TestSelection::Rag { k },
            None => TestSelection::All,
        };
        let test_prefix =
            flags.get("test-prefix").cloned().unwrap_or_else(|| "test_".to_string());
        let pipeline = PipelineConfig {
            selection,
            test_prefix,
            budgets: ResourceBudgets {
                max_solver_conflicts: num(flags, "max-solver-conflicts")?,
                ..ResourceBudgets::default()
            },
            ..PipelineConfig::default()
        };
        let cache = match flags.get("cache").map(String::as_str) {
            None | Some("on") => true,
            Some("off") => false,
            Some(other) => return Err(format!("--cache {other}: expected on|off")),
        };
        let workers = match flags.get("workers").map(String::as_str) {
            None => defaults.workers,
            Some("auto") => 0,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| format!("--workers {v}: expected a number or `auto`"))?,
        };
        Ok(GateConfig {
            pipeline,
            workers,
            fail_mode: flags
                .get("fail-mode")
                .map(|m| m.parse::<FailMode>())
                .transpose()?
                .unwrap_or_default(),
            deadline: num::<u64>(flags, "deadline-ms")?.map(Duration::from_millis),
            fault_seed: num(flags, "fault-seed")?,
            fault_rate: num::<f64>(flags, "fault-rate")?.unwrap_or(defaults.fault_rate),
            cache,
        })
    }

    /// Build the [`GateOptions`] this configuration implies. `rule_ids`
    /// seeds the chaos fault plan when `--fault-seed` was given.
    pub fn gate_options(&self, rule_ids: &[String]) -> GateOptions {
        GateOptions {
            fail_mode: self.fail_mode,
            deadline: self.deadline,
            faults: self
                .fault_seed
                .map(|seed| FaultInjector::new(FaultPlan::random(seed, self.fault_rate, rule_ids))),
        }
    }

    /// The cache this configuration implies (`None` when `--cache off`).
    pub fn gate_cache(&self) -> Option<Arc<GateCache>> {
        self.cache.then(|| Arc::new(GateCache::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    fn report() -> RuleReport {
        RuleReport::engine_error("R", "d", "call f()", "x > 0", "reason")
    }

    #[test]
    fn lock_counters_track_lookups() {
        let cache = GateCache::new();
        assert!(cache.get(7).is_none());
        cache.insert(7, report());
        assert_eq!(cache.get(7).expect("stored").rule_id, "R");
        let [(tier, stats)] = cache.tier_stats();
        assert_eq!(tier, "rule");
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(stats.lock_acquires, 3, "one per get and per insert");
        assert_eq!(stats.lock_contended, 0, "uncontended single thread");
    }

    #[test]
    fn stats_snapshots_do_not_count_their_own_locks() {
        let cache = GateCache::new();
        cache.insert(1, report());
        let [(_, first)] = cache.tier_stats();
        let [(_, second)] = cache.tier_stats();
        assert_eq!(first.entries, 1);
        assert_eq!(first.lock_acquires, second.lock_acquires, "an idle memo's count moved");
    }

    #[test]
    fn from_args_defaults() {
        let cfg = GateConfig::from_args(&HashMap::new()).expect("defaults");
        assert!(matches!(cfg.pipeline.selection, TestSelection::All));
        assert_eq!(cfg.workers, 0, "default is auto");
        assert_eq!(cfg.fail_mode, FailMode::Closed);
        assert!(cfg.deadline.is_none());
        assert!(cfg.cache);
        assert!(cfg.gate_cache().is_some());
    }

    #[test]
    fn from_args_parses_every_knob() {
        let knobs = [
            ("rag", "3"),
            ("test-prefix", "spec_"),
            ("workers", "8"),
            ("fail-mode", "open"),
            ("deadline-ms", "250"),
            ("max-solver-conflicts", "64"),
            ("fault-seed", "7"),
            ("fault-rate", "0.5"),
            ("cache", "off"),
        ];
        let cfg = GateConfig::from_args(&flags(&knobs)).expect("parse");
        assert!(matches!(cfg.pipeline.selection, TestSelection::Rag { k: 3 }));
        assert_eq!(cfg.pipeline.test_prefix, "spec_");
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.fail_mode, FailMode::Open);
        assert_eq!(cfg.deadline, Some(Duration::from_millis(250)));
        assert_eq!(cfg.pipeline.budgets.max_solver_conflicts, Some(64));
        assert_eq!(cfg.fault_seed, Some(7));
        assert!(cfg.gate_cache().is_none(), "--cache off");
        let opts = cfg.gate_options(&["R1".to_string()]);
        assert_eq!(opts.fail_mode, FailMode::Open);
        assert!(opts.faults.is_some());

        // The flag lists name exactly these knobs, and each one alone
        // moves the config (the pipeline part iff it is a pipeline flag).
        let mut names = knobs.map(|(name, _)| name);
        names.sort_unstable();
        let mut listed = GateConfig::FLAGS.to_vec();
        listed.sort_unstable();
        assert_eq!(names.as_slice(), listed.as_slice());
        let defaults = GateConfig::from_args(&HashMap::new()).expect("defaults");
        for (name, value) in knobs {
            let one = GateConfig::from_args(&flags(&[(name, value)])).expect(name);
            assert_ne!(format!("{one:?}"), format!("{defaults:?}"), "--{name} is never read");
            assert_eq!(
                format!("{:?}", one.pipeline) != format!("{:?}", defaults.pipeline),
                GateConfig::PIPELINE_FLAGS.contains(&name),
                "--{name}"
            );
        }
    }

    #[test]
    fn from_args_rejects_bad_values() {
        assert!(GateConfig::from_args(&flags(&[("workers", "many")])).is_err());
        assert!(GateConfig::from_args(&flags(&[("cache", "maybe")])).is_err());
        assert!(GateConfig::from_args(&flags(&[("fail-mode", "ajar")])).is_err());
    }

    #[test]
    fn from_args_workers_auto_resolves_to_zero() {
        let cfg = GateConfig::from_args(&flags(&[("workers", "auto")])).expect("auto");
        assert_eq!(cfg.workers, 0);
        let cfg = GateConfig::from_args(&flags(&[("workers", "0")])).expect("zero");
        assert_eq!(cfg.workers, 0);
        assert!(crate::resolve_workers(cfg.workers) >= 1);
    }
}
