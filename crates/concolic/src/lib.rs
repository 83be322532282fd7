//! # lisa-concolic
//!
//! Concolic execution over SIR — the role WeBridge plays in the paper's
//! prototype. Tests run concretely through the interpreter while a
//! [`engine::ConcolicTracer`] records the symbolic path condition of the
//! executed path, prunes irrelevant branches, invalidates stale
//! constraints on writes, and snapshots the condition whenever control
//! reaches a rule's target statement.
//!
//! - [`engine`] — the tracer: policies, constraints, target hits,
//! - [`harness`] — per-test execution with fresh interpreter state,
//! - [`tracelog`] — binary persistence of hits and offline re-judging.

#![forbid(unsafe_code)]

pub mod engine;
pub mod harness;
pub mod tracelog;

pub use engine::{ConcolicTracer, Constraint, EngineStats, Policy, TargetHit};
pub use harness::{
    discover_tests, run_tests, run_tests_budgeted, HarnessBudget, HarnessOutcome, SystemVersion,
    TestCase, TestRun,
};
pub use tracelog::{decode as decode_trace, encode as encode_trace, rejudge, TraceError, TraceRecord};
