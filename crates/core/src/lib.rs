//! # lisa
//!
//! LISA: preventing cloud-system regression failures by enforcing
//! *low-level semantics* — implementation-local rules inferred from past
//! failure tickets and asserted with concolic execution + SMT across
//! every path that reaches the rule's target statement. This crate is
//! the paper's primary contribution; the substrates it composes live in
//! `lisa-smt`, `lisa-lang`, `lisa-analysis`, `lisa-concolic`, and
//! `lisa-oracle`.
//!
//! - [`pipeline`] — the §3.2 check loop (tree → aliases → test selection
//!   → concolic assertion → verdicts),
//! - [`verdict`] — Verified / Violated / NotCovered chain reports,
//! - [`crosscheck`] — §5's test-grounding validation of mined rules,
//! - [`mod@enforce`] — the rule registry and CI/CD gate (panic-isolated,
//!   budgeted, with fail-open/fail-closed semantics), which checks rules
//!   in parallel, one task per rule, and folds reports in registry order,
//! - [`error`] — the engine-error taxonomy the gate folds failures into,
//! - [`faults`] — seeded fault injection for resilience testing,
//! - [`baselines`] — regression-test replay and exhaustive-verification
//!   comparators (Figure 4),
//! - [`mod@compose`] — §5 Q3: composing validated low-level semantics into
//!   high-level guarantees,
//! - [`report`] — human-readable tables and summaries,
//! - [`json`] — machine-readable gate output for CI (writer + strict
//!   NDJSON parser for the `lisa serve` protocol),
//! - [`service`] — durable (journaled, crash-resumable) gate runs and
//!   the supervised `lisa serve` daemon, backed by `lisa-store`,
//! - [`tenant`] — multi-tenant admission control, weighted-fair
//!   queueing, and per-tenant availability-tactic state for the daemon,
//! - [`netloop`] — the std-only `poll(2)` readiness loop multiplexing
//!   every listener of the daemon (unix socket, `--listen`,
//!   `--repl-listen`) without threads.
//!
//! ```
//! use lisa::{Pipeline, PipelineConfig, TestSelection};
//! use lisa_analysis::TargetSpec;
//! use lisa_concolic::{discover_tests, SystemVersion};
//! use lisa_lang::Program;
//! use lisa_oracle::SemanticRule;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Program::parse_single(
//!     "demo",
//!     "struct Order { id: int, paid: bool }\n\
//!      global orders: map<int, Order>;\n\
//!      fn ship(o: Order) {}\n\
//!      fn checkout(oid: int) {\n\
//!          let o: Order = orders.get(oid);\n\
//!          if (o == null) { return; }\n\
//!          ship(o);\n\
//!      }\n\
//!      fn test_checkout() {\n\
//!          orders.put(1, new Order { id: 1, paid: true });\n\
//!          checkout(1);\n\
//!      }",
//! )?;
//! let version = SystemVersion::new("v1", program.clone(), discover_tests(&program, "test_"));
//! let rule = SemanticRule::new(
//!     "SHOP-1", "never ship unpaid orders",
//!     TargetSpec::Call { callee: "ship".into() },
//!     "o != null && o.paid == true",
//! )?;
//! let pipeline = Pipeline::new(PipelineConfig {
//!     selection: TestSelection::All,
//!     ..PipelineConfig::default()
//! });
//! // `try_check_rule` is the Result-based stage boundary: a malformed
//! // rule is a typed error, not a downstream panic.
//! let report = pipeline.try_check_rule(&version, &rule)?;
//! // The checkout path checks only for null — the missing `paid` check
//! // is a violation with a concrete witness.
//! assert!(report.has_violation());
//! let v = report.violations()[0];
//! assert_eq!(v.witness.get("o.paid"), Some(&lisa_smt::Value::Bool(false)));
//! # Ok(())
//! # }
//! ```

// `unsafe` is denied crate-wide and allowed back in exactly one module:
// `netloop`, whose two audited libc syscall wrappers (`poll(2)`,
// `get/setrlimit`) give the serve daemon its std-only readiness loop.
// See that module for the safety argument.
#![deny(unsafe_code)]

pub mod baselines;
pub mod compose;
pub mod crosscheck;
pub mod enforce;
pub mod error;
pub mod faults;
pub mod gate;
pub mod json;
pub mod netloop;
pub mod pipeline;
pub mod report;
pub mod service;
pub mod tenant;
pub mod verdict;

pub use compose::{compose, CompositionResult, HighLevelProperty, Obligation};
pub use crosscheck::{cross_check, CrossCheck};
pub use enforce::{
    resolve_workers, EnforcementReport, FailMode, GateDecision, GateOptions, RuleRegistry,
};
pub use error::LisaError;
pub use faults::{
    DiskFaultInjector, DiskFaultKind, FaultInjector, FaultKind, FaultPlan, StreamFaultInjector,
    StreamFaultKind,
};
pub use gate::{Gate, GateCache, GateConfig};
pub use json::Json;
pub use pipeline::{Pipeline, PipelineConfig, ResourceBudgets, TestSelection};
pub use service::{
    gate_durable, load_rules, load_system, request, request_tcp, run_key, serve,
    DurableGateReport, DurableOptions, ServeConfig, ServeStats,
};
pub use tenant::{parse_tenant_specs, valid_tenant, TenantSpec, MAX_JOB_ID_LEN};
pub use verdict::{ChainReport, ChainVerdict, PipelineStats, RuleReport, Violation};
