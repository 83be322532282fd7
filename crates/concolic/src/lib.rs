//! # lisa-concolic
//!
//! Concolic execution over SIR — the role WeBridge plays in the paper's
//! prototype. Tests run concretely through the interpreter while a
//! [`engine::ConcolicTracer`] records the symbolic path condition of the
//! executed path, prunes irrelevant branches, invalidates stale
//! constraints on writes, and snapshots the condition whenever control
//! reaches a rule's target statement. Target hits live only in memory:
//! the pipeline judges each one's path condition as it arrives, and
//! nothing persists them.
//!
//! - [`engine`] — the tracer: policies, constraints, target hits,
//! - [`harness`] — per-test execution with fresh interpreter state.

#![forbid(unsafe_code)]

pub mod engine;
pub mod harness;

pub use engine::{ConcolicTracer, Constraint, EngineStats, Policy, TargetHit};
pub use harness::{
    discover_tests, run_tests, run_tests_budgeted, HarnessBudget, HarnessOutcome, SystemVersion,
    TestCase, TestRun,
};
