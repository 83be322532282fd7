//! # lisa-lang
//!
//! SIR ("Systems IR"): the small statically-typed imperative language that
//! stands in for the paper's Java subject systems (ZooKeeper, HBase,
//! HDFS, Cassandra). The corpus's mini systems are written in SIR; LISA's
//! analyses and concolic execution run over it.
//!
//! Components:
//! - [`token`] / [`parser`] / [`ast`] — front-end; [`name`] — the
//!   identifiers and literals that share their module's source text,
//! - [`types`] — static type checker,
//! - [`value`] / [`interp`] — heap, values, and the tracing interpreter
//!   (the concolic engine hooks its [`interp::Tracer`] events),
//! - [`symbolic`] — syntactic guard-to-term derivation, the bridge from
//!   branch guards to `lisa-smt` path constraints,
//! - [`diff`] — line diffs between source versions (ticket patches),
//! - [`pretty`] — canonical pretty-printer (parse∘print fixed point),
//! - [`program`] — whole-program container with a flat namespace,
//! - [`span`] — source locations.
//!
//! ```
//! use lisa_lang::{Interp, NullTracer, Program, Value};
//!
//! let program = Program::parse_single(
//!     "demo",
//!     "struct Session { id: int, closing: bool }\n\
//!      global sessions: map<int, Session>;\n\
//!      fn touch(sid: int) -> bool {\n\
//!          let s: Session = sessions.get(sid);\n\
//!          if (s == null || s.closing) { return false; }\n\
//!          return true;\n\
//!      }\n\
//!      fn open(sid: int) { sessions.put(sid, new Session { id: sid }); }",
//! ).unwrap();
//! assert!(lisa_lang::check_program(&program).is_empty());
//!
//! let mut interp = Interp::new(&program);
//! interp.call("open", vec![Value::Int(1)], &mut NullTracer).unwrap();
//! let alive = interp.call("touch", vec![Value::Int(1)], &mut NullTracer).unwrap();
//! assert_eq!(alive, Value::Bool(true));
//! let missing = interp.call("touch", vec![Value::Int(9)], &mut NullTracer).unwrap();
//! assert_eq!(missing, Value::Bool(false));
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod diff;
pub mod fingerprint;
pub mod interp;
pub mod name;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod span;
pub mod symbolic;
pub mod token;
pub mod types;
pub mod value;

pub use fingerprint::{fingerprint_decls, fingerprint_fn, fingerprint_program, fn_fingerprints};
pub use ast::{BinOp, Expr, ExprKind, FnDecl, LValue, Module, Stmt, StmtId, StmtKind, Type, UnOp};
pub use interp::{Interp, NullTracer, RunConfig, RuntimeError, Tracer};
pub use name::Name;
pub use parser::{parse_module, ParseError};
pub use program::{Program, ProgramError};
pub use span::{LineMap, Loc, Span};
pub use types::{check_program, TypeError};
pub use value::{Heap, HeapObj, MapKey, RefId, Value};
