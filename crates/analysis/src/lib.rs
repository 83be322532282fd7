//! # lisa-analysis
//!
//! Static analysis over SIR programs — the role Soot plays in the paper's
//! prototype:
//!
//! - [`callgraph`] — exact call graph whose sites borrow their caller,
//!   callee, argument expressions and lexical lock context from the
//!   program (argument paths are derived on demand),
//! - [`target`] — target-statement specifications (the `s` in the paper's
//!   safety contracts `{P} s {Q}`),
//! - [`tree`] — execution trees: all acyclic entry→target call chains,
//! - [`alias`] — placeholder-to-concrete-variable mapping per chain (the
//!   deterministic stand-in for the paper's LLM variable mapper),
//! - [`paths`] — intraprocedural path-space estimators used by the
//!   pruning experiments.
//!
//! Graphs, trees, chains and alias maps borrow their names from the
//! [`Program`] they were built over and the rule they serve; an alias map
//! owns only the field paths it builds (`req.session`).
//!
//! [`Program`]: lisa_lang::Program
//!
//! ```
//! use lisa_analysis::{execution_tree, CallGraph, TargetSpec, TreeLimits};
//! use lisa_lang::Program;
//!
//! let p = Program::parse_single(
//!     "demo",
//!     "struct S { ok: bool }\n\
//!      fn act(s: S) {}\n\
//!      fn path_a(s: S) { act(s); }\n\
//!      fn path_b(s: S) { if (s != null) { act(s); } }",
//! ).unwrap();
//! let graph = CallGraph::build(&p);
//! let tree = execution_tree(
//!     &graph,
//!     &TargetSpec::Call { callee: "act".into() },
//!     TreeLimits::default(),
//! );
//! let rendered: Vec<String> = tree.chains.iter().map(|c| c.render(&graph)).collect();
//! assert_eq!(rendered, vec!["path_a [act]", "path_b [act]"]);
//! ```

#![forbid(unsafe_code)]

pub mod alias;
pub mod callgraph;
pub mod paths;
pub mod target;
pub mod tree;

pub use alias::{chain_aliases, AliasMap};
pub use callgraph::{CallGraph, CallSite, SiteId};
pub use paths::{paths_through_fn, paths_to_stmt};
pub use target::TargetSpec;
pub use tree::{execution_tree, execution_tree_filtered, CallChain, ExecutionTree, TreeLimits};
