//! # lisa-smt
//!
//! A small, dependency-free SMT solver for the predicate fragment used by
//! LISA's *low-level semantics* ("Once Bitten, Still Shy", HotNets '25).
//! It plays the role Z3 plays in the paper's prototype.
//!
//! The fragment: boolean combinations of implementation-local predicates —
//! boolean fields, integer difference/bound comparisons, reference
//! equality with `null`, and string equality. The architecture is lazy
//! DPLL(T):
//!
//! - [`term`] — the term AST and builders,
//! - [`parse`] — the Java-flavoured surface syntax used in tickets,
//! - [`nnf`] — negation normal form, canonicalization, simplification,
//! - [`cnf`] — Tseitin encoding,
//! - [`sat`] — a CDCL SAT core (watched literals, 1UIP, restarts),
//! - [`theory`] — equality (union-find with explanations) + integer
//!   difference bounds (negative-cycle detection),
//! - [`solver`] — the DPLL(T) loop, entailment queries, and the
//!   [`SolverSession`] that asks one checker's violation queries, each
//!   on a fresh solver,
//! - [`model`] — witness assignments and evaluation.
//!
//! The query LISA cares about most is [`solver::violates`]: a path
//! condition π violates a checker formula C iff `π ∧ ¬C` is satisfiable —
//! the paper's "complement of the checker formula" rule, under which a
//! *missing* check counts as a violation.
//!
//! ```
//! use lisa_smt::{parse_cond, violates};
//!
//! let checker = parse_cond("s != null && s.isClosing == false && s.ttl > 0").unwrap();
//! // A path that forgot the ttl check:
//! let pi = parse_cond("s != null && s.isClosing == false").unwrap();
//! let witness = violates(&pi, &checker).expect("missing ttl check is a violation");
//! assert!(witness.eval(&checker) == false);
//! // The fixed path verifies:
//! assert!(violates(&checker, &checker).is_none());
//! ```

#![forbid(unsafe_code)]

pub mod cnf;
pub mod model;
pub mod nnf;
pub mod parse;
pub mod sat;
pub mod solver;
pub mod term;
pub mod theory;

pub use model::{Model, Value};
pub use nnf::{preprocess, to_nnf, Literal};
pub use parse::{parse_cond, parse_cond_with, ParseError};
pub use solver::{
    equivalent, implies, is_sat, is_valid, violates, violates_budgeted, SatResult, SessionStats,
    Solver, SolverSession, ViolationOutcome,
};
pub use term::{Atom, CmpOp, IntOperand, RefOperand, Sort, StrOperand, Term};
