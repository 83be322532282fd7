//! The SIR interpreter.
//!
//! A tree-walking interpreter with an event hook ([`Tracer`]) at every
//! point the concolic layer cares about: branches (with the guard
//! expression, so path constraints can be derived syntactically), calls,
//! returns, assignments (for constraint invalidation), `sync` sections
//! and builtin invocations (for the blocking-I/O rule family).
//!
//! Execution is deterministic and bounded by a step budget; the logical
//! clock `now()` advances by one tick per call.

use std::collections::{BTreeMap, HashMap};

use crate::ast::*;
use crate::program::Program;
use crate::span::Span;
use crate::value::{Heap, HeapObj, MapKey, RefId, Value};

/// Runtime error kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorKind {
    NullDeref { what: String },
    DivByZero,
    IndexOutOfBounds { index: i64, len: usize },
    AssertFailed { message: String },
    Thrown { message: String },
    UnknownFunction { name: String },
    StepLimit,
    StackOverflow,
    TypeMismatch { expected: &'static str, found: String },
    MissingField { struct_name: String, field: String },
    BadMapKey,
    DeadlockSelfLock { lock: String },
}

/// A runtime error with the function and span where it was raised.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeError {
    pub kind: ErrorKind,
    pub function: String,
    pub span: Span,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let k = match &self.kind {
            ErrorKind::NullDeref { what } => format!("null dereference: {what}"),
            ErrorKind::DivByZero => "division by zero".to_string(),
            ErrorKind::IndexOutOfBounds { index, len } => {
                format!("index {index} out of bounds (len {len})")
            }
            ErrorKind::AssertFailed { message } => format!("assertion failed: {message}"),
            ErrorKind::Thrown { message } => format!("thrown: {message}"),
            ErrorKind::UnknownFunction { name } => format!("unknown function `{name}`"),
            ErrorKind::StepLimit => "step budget exhausted".to_string(),
            ErrorKind::StackOverflow => "call stack overflow".to_string(),
            ErrorKind::TypeMismatch { expected, found } => {
                format!("type mismatch: expected {expected}, found {found}")
            }
            ErrorKind::MissingField { struct_name, field } => {
                format!("struct `{struct_name}` missing field `{field}`")
            }
            ErrorKind::BadMapKey => "value is not usable as a map key".to_string(),
            ErrorKind::DeadlockSelfLock { lock } => {
                format!("re-entrant acquisition of lock `{lock}`")
            }
        };
        write!(f, "{k} in `{}`", self.function)
    }
}

impl std::error::Error for RuntimeError {}

/// A branch event: guard expression plus the direction taken. The
/// function name and guard borrow from the program.
pub struct BranchEvent<'a> {
    pub function: &'a str,
    pub stmt: StmtId,
    pub span: Span,
    pub guard: &'a Expr,
    pub taken: bool,
    /// Call depth (entry function = 0).
    pub depth: usize,
}

/// A call event, emitted before the callee body runs. The names and
/// argument expressions borrow from the program (`'p`); the argument
/// values live only for the event (`'a`).
pub struct CallEvent<'a, 'p> {
    pub caller: &'p str,
    pub callee: &'p str,
    pub span: Span,
    pub args: &'a [Value],
    /// The argument expressions at the call site; empty for a harness
    /// entry call, which has no call site.
    pub arg_exprs: &'p [Expr],
    pub depth: usize,
}

impl CallEvent<'_, '_> {
    /// Syntactic path of each argument expression, when path-shaped.
    /// Derived on request: most tracers never ask, so calls do not pay
    /// for the strings.
    pub fn arg_paths(&self) -> Vec<Option<String>> {
        (0..self.args.len())
            .map(|i| self.arg_exprs.get(i).and_then(crate::symbolic::expr_path))
            .collect()
    }
}

/// An assignment event (used to invalidate stale path constraints).
pub struct AssignEvent<'a> {
    pub function: &'a str,
    /// Dotted path written (`x`, `s.ttl`); `None` when the object
    /// expression is not path-shaped.
    pub path: Option<&'a str>,
    pub depth: usize,
}

/// A builtin invocation event.
pub struct BuiltinEvent<'a> {
    pub function: &'a str,
    pub name: &'a str,
    pub args: &'a [Value],
    pub span: Span,
    /// Locks held at the moment of the call (innermost last).
    pub locks: &'a [&'a str],
    pub depth: usize,
}

/// Execution observer over a program that lives for `'p`. All methods
/// default to no-ops. Branch and call events name functions with
/// `&'p str`s borrowed from the program, so a tracer may keep those
/// names for the whole run without copying them.
pub trait Tracer<'p> {
    fn on_branch(&mut self, _ev: &BranchEvent<'p>) {}
    fn on_call(&mut self, _ev: &CallEvent<'_, 'p>) {}
    fn on_return(&mut self, _callee: &str, _depth: usize) {}
    fn on_assign(&mut self, _ev: &AssignEvent<'_>) {}
    fn on_sync_enter(&mut self, _lock: &str, _function: &str, _span: Span, _depth: usize) {}
    fn on_sync_exit(&mut self, _lock: &str, _depth: usize) {}
    fn on_builtin(&mut self, _ev: &BuiltinEvent<'_>) {}
}

/// A tracer that records nothing.
pub struct NullTracer;

impl Tracer<'_> for NullTracer {}

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Maximum primitive evaluation steps before aborting.
    pub max_steps: u64,
    /// Maximum call depth. The tree-walking interpreter uses the host
    /// stack (several Rust frames per SIR frame, large in debug builds),
    /// so the default is conservative enough for a 2 MiB test thread.
    /// Raise it only on threads with a correspondingly larger stack.
    pub max_depth: usize,
    /// Starting value of the logical clock.
    pub clock_start: i64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { max_steps: 2_000_000, max_depth: 40, clock_start: 1_000 }
    }
}

/// Statistics from one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    pub steps: u64,
    pub branches: u64,
    pub calls: u64,
    pub max_depth_seen: usize,
}

enum Flow {
    Normal,
    Return(Value),
}

/// A frame's local variables. Names borrow from the program's AST, so
/// binding a parameter or a `let` copies no string.
type Env<'p> = HashMap<&'p str, Value>;

/// The zero value of a type (Java primitive defaults; refs are null).
fn zero_value(ty: &Type) -> Value {
    match ty {
        Type::Int => Value::Int(0),
        Type::Bool => Value::Bool(false),
        Type::Str => Value::Str(String::new()),
        Type::Struct(_) | Type::Map(_, _) | Type::List(_) => Value::Null,
        Type::Unit => Value::Unit,
    }
}

/// The interpreter. One instance holds the mutable world (heap, globals,
/// clock) across any number of entry-point invocations — tests in the
/// corpus run sequences of calls against shared global state, exactly as
/// JUnit tests drive a ZooKeeper server object.
pub struct Interp<'p> {
    program: &'p Program,
    pub heap: Heap,
    /// Global values by [`Program::global_slot`]; no name is copied.
    globals: Vec<Value>,
    pub config: RunConfig,
    pub stats: RunStats,
    clock: i64,
    steps_left: u64,
    /// Locks held, innermost last; the names borrow from the program.
    locks: Vec<&'p str>,
    log_lines: Vec<String>,
}

impl<'p> Interp<'p> {
    /// Create an interpreter; allocates global maps/lists.
    pub fn new(program: &'p Program) -> Interp<'p> {
        Interp::with_config(program, RunConfig::default())
    }

    /// Create with explicit configuration.
    pub fn with_config(program: &'p Program, config: RunConfig) -> Interp<'p> {
        let mut heap = Heap::new();
        let mut globals = vec![Value::Unit; program.global_count()];
        // Declaration order fixes the heap ids the global maps and lists
        // get; the slot only says where each value is kept.
        for g in program.globals() {
            let v = match &g.ty {
                Type::Map(_, v) => Value::Ref(heap.alloc(HeapObj::Map {
                    entries: BTreeMap::new(),
                    default: zero_value(v),
                })),
                Type::List(_) => Value::Ref(heap.alloc(HeapObj::List { items: Vec::new() })),
                Type::Int => Value::Int(0),
                Type::Bool => Value::Bool(false),
                Type::Str => Value::Str(String::new()),
                Type::Struct(_) => Value::Null,
                Type::Unit => Value::Unit,
            };
            let slot = program.global_slot(&g.name).expect("every global is indexed");
            globals[slot] = v;
        }
        let clock = config.clock_start;
        let steps_left = config.max_steps;
        Interp {
            program,
            heap,
            globals,
            config,
            stats: RunStats::default(),
            clock,
            steps_left,
            locks: Vec::new(),
            log_lines: Vec::new(),
        }
    }

    /// Read a global (for test assertions).
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.program.global_slot(name).map(|slot| &self.globals[slot])
    }

    /// Lines written via `log(..)` so far.
    pub fn log_lines(&self) -> &[String] {
        &self.log_lines
    }

    /// Current logical clock.
    pub fn clock(&self) -> i64 {
        self.clock
    }

    /// Call a function by name with concrete arguments.
    pub fn call(
        &mut self,
        fn_name: &str,
        args: Vec<Value>,
        tracer: &mut dyn Tracer<'p>,
    ) -> Result<Value, RuntimeError> {
        self.call_fn(fn_name, args, &[], tracer, 0, Span::default(), "<harness>")
    }

    /// Invoke `fn_name`. The callee's declaration is borrowed from the
    /// program for the whole call, never copied.
    #[allow(clippy::too_many_arguments)] // the full call-site context, threaded once
    fn call_fn(
        &mut self,
        fn_name: &str,
        args: Vec<Value>,
        arg_exprs: &'p [Expr],
        tracer: &mut dyn Tracer<'p>,
        depth: usize,
        span: Span,
        caller: &'p str,
    ) -> Result<Value, RuntimeError> {
        let program = self.program;
        let Some(decl) = program.function(fn_name) else {
            return Err(RuntimeError {
                kind: ErrorKind::UnknownFunction { name: fn_name.to_string() },
                function: caller.to_string(),
                span,
            });
        };
        if depth >= self.config.max_depth {
            return Err(RuntimeError {
                kind: ErrorKind::StackOverflow,
                function: caller.to_string(),
                span,
            });
        }
        self.stats.calls += 1;
        self.stats.max_depth_seen = self.stats.max_depth_seen.max(depth);
        tracer.on_call(&CallEvent {
            caller,
            callee: &decl.name,
            span,
            args: &args,
            arg_exprs,
            depth,
        });
        let mut env = Env::new();
        for ((pname, _), v) in decl.params.iter().zip(args) {
            env.insert(pname, v);
        }
        let out = self.exec_block(&decl.body, &mut env, decl, tracer, depth)?;
        tracer.on_return(fn_name, depth);
        Ok(match out {
            Flow::Return(v) => v,
            Flow::Normal => Value::Unit,
        })
    }

    fn tick(&mut self, function: &str, span: Span) -> Result<(), RuntimeError> {
        self.stats.steps += 1;
        if self.steps_left == 0 {
            return Err(RuntimeError {
                kind: ErrorKind::StepLimit,
                function: function.to_string(),
                span,
            });
        }
        self.steps_left -= 1;
        Ok(())
    }

    fn err(&self, kind: ErrorKind, f: &FnDecl, span: Span) -> RuntimeError {
        RuntimeError { kind, function: f.name.to_string(), span }
    }

    fn exec_block(
        &mut self,
        stmts: &'p [Stmt],
        env: &mut Env<'p>,
        f: &'p FnDecl,
        tracer: &mut dyn Tracer<'p>,
        depth: usize,
    ) -> Result<Flow, RuntimeError> {
        // `let`s are block-scoped: remember what each one shadowed so the
        // outer binding (or absence) is restored on exit, while plain
        // assignments to outer variables persist.
        let mut shadows: Vec<(&'p str, Option<Value>)> = Vec::new();
        let mut flow = Flow::Normal;
        let mut error = None;
        for s in stmts {
            if let StmtKind::Let { name, .. } = &s.kind {
                shadows.push((name, env.get(name.as_str()).cloned()));
            }
            match self.exec_stmt(s, env, f, tracer, depth) {
                Ok(Flow::Normal) => {}
                Ok(ret) => {
                    flow = ret;
                    break;
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        for (name, old) in shadows.into_iter().rev() {
            match old {
                Some(v) => {
                    env.insert(name, v);
                }
                None => {
                    env.remove(name);
                }
            }
        }
        match error {
            Some(e) => Err(e),
            None => Ok(flow),
        }
    }

    fn exec_stmt(
        &mut self,
        s: &'p Stmt,
        env: &mut Env<'p>,
        f: &'p FnDecl,
        tracer: &mut dyn Tracer<'p>,
        depth: usize,
    ) -> Result<Flow, RuntimeError> {
        self.tick(&f.name, s.span)?;
        match &s.kind {
            StmtKind::Let { name, init, .. } => {
                let v = self.eval(init, env, f, tracer, depth)?;
                tracer.on_assign(&AssignEvent { function: &f.name, path: Some(name), depth });
                env.insert(name, v);
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, value } => {
                let v = self.eval(value, env, f, tracer, depth)?;
                match target {
                    LValue::Var(name) => {
                        tracer.on_assign(&AssignEvent {
                            function: &f.name,
                            path: Some(name),
                            depth,
                        });
                        if let Some(slot) = env.get_mut(name.as_str()) {
                            *slot = v;
                        } else if let Some(slot) = self.program.global_slot(name) {
                            self.globals[slot] = v;
                        } else {
                            return Err(self.err(
                                ErrorKind::TypeMismatch {
                                    expected: "assignable variable",
                                    found: name.to_string(),
                                },
                                f,
                                s.span,
                            ));
                        }
                    }
                    LValue::Field(obj_expr, field) => {
                        let obj = self.eval(obj_expr, env, f, tracer, depth)?;
                        let path = crate::symbolic::expr_path(obj_expr)
                            .map(|p| format!("{p}.{field}"));
                        tracer.on_assign(&AssignEvent {
                            function: &f.name,
                            path: path.as_deref(),
                            depth,
                        });
                        let r = match obj {
                            Value::Ref(r) => r,
                            Value::Null => {
                                return Err(self.err(
                                    ErrorKind::NullDeref { what: format!("write to .{field}") },
                                    f,
                                    s.span,
                                ))
                            }
                            other => {
                                return Err(self.err(
                                    ErrorKind::TypeMismatch {
                                        expected: "struct reference",
                                        found: other.type_name().to_string(),
                                    },
                                    f,
                                    s.span,
                                ))
                            }
                        };
                        match self.heap.get_mut(r) {
                            HeapObj::Struct { fields, .. } => {
                                fields.insert(field.to_string(), v);
                            }
                            other => {
                                let found = other.kind().to_string();
                                return Err(self.err(
                                    ErrorKind::TypeMismatch { expected: "struct", found },
                                    f,
                                    s.span,
                                ));
                            }
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then_body, else_body } => {
                let c = self.eval_bool(cond, env, f, tracer, depth)?;
                self.stats.branches += 1;
                tracer.on_branch(&BranchEvent {
                    function: &f.name,
                    stmt: s.id,
                    span: cond.span,
                    guard: cond,
                    taken: c,
                    depth,
                });
                let flow = if c {
                    self.exec_block(then_body, env, f, tracer, depth)?
                } else {
                    self.exec_block(else_body, env, f, tracer, depth)?
                };
                Ok(flow)
            }
            StmtKind::While { cond, body } => {
                loop {
                    self.tick(&f.name, s.span)?;
                    let c = self.eval_bool(cond, env, f, tracer, depth)?;
                    self.stats.branches += 1;
                    tracer.on_branch(&BranchEvent {
                        function: &f.name,
                        stmt: s.id,
                        span: cond.span,
                        guard: cond,
                        taken: c,
                        depth,
                    });
                    if !c {
                        break;
                    }
                    if let Flow::Return(v) = self.exec_block(body, env, f, tracer, depth)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For { var, iter, body } => {
                let list = self.eval(iter, env, f, tracer, depth)?;
                let items = match list {
                    Value::Ref(r) => match self.heap.get(r) {
                        HeapObj::List { items } => items.clone(),
                        other => {
                            let found = other.kind().to_string();
                            return Err(self.err(
                                ErrorKind::TypeMismatch { expected: "list", found },
                                f,
                                s.span,
                            ));
                        }
                    },
                    Value::Null => {
                        return Err(self.err(
                            ErrorKind::NullDeref { what: "for-in over null".into() },
                            f,
                            s.span,
                        ))
                    }
                    other => {
                        return Err(self.err(
                            ErrorKind::TypeMismatch {
                                expected: "list",
                                found: other.type_name().to_string(),
                            },
                            f,
                            s.span,
                        ))
                    }
                };
                let prior = env.get(var.as_str()).cloned();
                let mut out = Flow::Normal;
                for item in items {
                    self.tick(&f.name, s.span)?;
                    env.insert(var, item);
                    tracer.on_assign(&AssignEvent { function: &f.name, path: Some(var), depth });
                    if let Flow::Return(v) = self.exec_block(body, env, f, tracer, depth)? {
                        out = Flow::Return(v);
                        break;
                    }
                }
                match prior {
                    Some(v) => {
                        env.insert(var, v);
                    }
                    None => {
                        env.remove(var.as_str());
                    }
                }
                Ok(out)
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e, env, f, tracer, depth)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Assert { cond, message } => {
                let c = self.eval_bool(cond, env, f, tracer, depth)?;
                if !c {
                    let message = message.as_deref().unwrap_or("assert").to_string();
                    return Err(self.err(ErrorKind::AssertFailed { message }, f, s.span));
                }
                Ok(Flow::Normal)
            }
            StmtKind::Sync { lock, body } => {
                if self.locks.iter().any(|l| l == lock) {
                    return Err(self.err(
                        ErrorKind::DeadlockSelfLock { lock: lock.to_string() },
                        f,
                        s.span,
                    ));
                }
                self.locks.push(lock);
                tracer.on_sync_enter(lock, &f.name, s.span, depth);
                let flow = self.exec_block(body, env, f, tracer, depth);
                tracer.on_sync_exit(lock, depth);
                self.locks.pop();
                flow
            }
            StmtKind::Throw(message) => {
                Err(self.err(ErrorKind::Thrown { message: message.to_string() }, f, s.span))
            }
            StmtKind::Expr(e) => {
                self.eval(e, env, f, tracer, depth)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn eval_bool(
        &mut self,
        e: &'p Expr,
        env: &mut Env<'p>,
        f: &'p FnDecl,
        tracer: &mut dyn Tracer<'p>,
        depth: usize,
    ) -> Result<bool, RuntimeError> {
        match self.eval(e, env, f, tracer, depth)? {
            Value::Bool(b) => Ok(b),
            other => Err(self.err(
                ErrorKind::TypeMismatch { expected: "bool", found: other.type_name().to_string() },
                f,
                e.span,
            )),
        }
    }

    fn eval(
        &mut self,
        e: &'p Expr,
        env: &mut Env<'p>,
        f: &'p FnDecl,
        tracer: &mut dyn Tracer<'p>,
        depth: usize,
    ) -> Result<Value, RuntimeError> {
        self.tick(&f.name, e.span)?;
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Str(s) => Ok(Value::Str(s.to_string())),
            ExprKind::Null => Ok(Value::Null),
            ExprKind::Var(name) => {
                if let Some(v) = env.get(name.as_str()) {
                    Ok(v.clone())
                } else if let Some(slot) = self.program.global_slot(name) {
                    Ok(self.globals[slot].clone())
                } else {
                    Err(self.err(
                        ErrorKind::TypeMismatch { expected: "variable", found: name.to_string() },
                        f,
                        e.span,
                    ))
                }
            }
            ExprKind::Field(obj, field) => {
                let o = self.eval(obj, env, f, tracer, depth)?;
                match o {
                    Value::Ref(r) => match self.heap.get(r) {
                        HeapObj::Struct { ty, fields } => match fields.get(field.as_str()) {
                            Some(v) => Ok(v.clone()),
                            None => Err(self.err(
                                ErrorKind::MissingField {
                                    struct_name: ty.clone(),
                                    field: field.to_string(),
                                },
                                f,
                                e.span,
                            )),
                        },
                        other => {
                            let found = other.kind().to_string();
                            Err(self.err(
                                ErrorKind::TypeMismatch { expected: "struct", found },
                                f,
                                e.span,
                            ))
                        }
                    },
                    Value::Null => Err(self.err(
                        ErrorKind::NullDeref { what: format!("read of .{field}") },
                        f,
                        e.span,
                    )),
                    other => Err(self.err(
                        ErrorKind::TypeMismatch {
                            expected: "struct reference",
                            found: other.type_name().to_string(),
                        },
                        f,
                        e.span,
                    )),
                }
            }
            ExprKind::Index(list, idx) => {
                let l = self.eval(list, env, f, tracer, depth)?;
                let i = self.eval_int(idx, env, f, tracer, depth)?;
                match l {
                    Value::Ref(r) => match self.heap.get(r) {
                        HeapObj::List { items } => {
                            if i < 0 || i as usize >= items.len() {
                                Err(self.err(
                                    ErrorKind::IndexOutOfBounds { index: i, len: items.len() },
                                    f,
                                    e.span,
                                ))
                            } else {
                                Ok(items[i as usize].clone())
                            }
                        }
                        other => {
                            let found = other.kind().to_string();
                            Err(self.err(
                                ErrorKind::TypeMismatch { expected: "list", found },
                                f,
                                e.span,
                            ))
                        }
                    },
                    Value::Null => Err(self.err(
                        ErrorKind::NullDeref { what: "index of null list".into() },
                        f,
                        e.span,
                    )),
                    other => Err(self.err(
                        ErrorKind::TypeMismatch {
                            expected: "list",
                            found: other.type_name().to_string(),
                        },
                        f,
                        e.span,
                    )),
                }
            }
            ExprKind::Unary(UnOp::Neg, inner) => {
                let v = self.eval_int(inner, env, f, tracer, depth)?;
                Ok(Value::Int(v.wrapping_neg()))
            }
            ExprKind::Unary(UnOp::Not, inner) => {
                let v = self.eval_bool(inner, env, f, tracer, depth)?;
                Ok(Value::Bool(!v))
            }
            ExprKind::Binary(BinOp::And, l, r) => {
                // Short-circuit.
                if !self.eval_bool(l, env, f, tracer, depth)? {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(self.eval_bool(r, env, f, tracer, depth)?))
            }
            ExprKind::Binary(BinOp::Or, l, r) => {
                if self.eval_bool(l, env, f, tracer, depth)? {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(self.eval_bool(r, env, f, tracer, depth)?))
            }
            ExprKind::Binary(op, l, r) => {
                let lv = self.eval(l, env, f, tracer, depth)?;
                let rv = self.eval(r, env, f, tracer, depth)?;
                self.eval_binop(*op, lv, rv, f, e.span)
            }
            ExprKind::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env, f, tracer, depth)?);
                }
                if crate::types::builtin_signature(name).is_some() {
                    tracer.on_builtin(&BuiltinEvent {
                        function: &f.name,
                        name,
                        args: &vals,
                        span: e.span,
                        locks: &self.locks,
                        depth,
                    });
                    return self.eval_builtin(name, vals, f, e.span);
                }
                self.call_fn(name, vals, args, tracer, depth + 1, e.span, &f.name)
            }
            ExprKind::MethodCall(recv, method, args) => {
                let r = self.eval(recv, env, f, tracer, depth)?;
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env, f, tracer, depth)?);
                }
                self.eval_method(r, method, vals, f, e.span)
            }
            ExprKind::New(name, fields) => {
                let program = self.program;
                let Some(decl) = program.struct_decl(name) else {
                    return Err(self.err(
                        ErrorKind::TypeMismatch { expected: "struct type", found: name.to_string() },
                        f,
                        e.span,
                    ));
                };
                let mut map = BTreeMap::new();
                // Defaults first, then explicit initializers.
                for (fname, fty) in &decl.fields {
                    let v = match fty {
                        Type::Int => Value::Int(0),
                        Type::Bool => Value::Bool(false),
                        Type::Str => Value::Str(String::new()),
                        Type::Struct(_) => Value::Null,
                        Type::Map(_, v) => Value::Ref(self.heap.alloc(HeapObj::Map {
                            entries: BTreeMap::new(),
                            default: zero_value(v),
                        })),
                        Type::List(_) => {
                            Value::Ref(self.heap.alloc(HeapObj::List { items: Vec::new() }))
                        }
                        Type::Unit => Value::Unit,
                    };
                    map.insert(fname.to_string(), v);
                }
                for (fname, fexpr) in fields {
                    let v = self.eval(fexpr, env, f, tracer, depth)?;
                    // A declared field already has its key from the
                    // defaults; only an undeclared one needs a copy.
                    match map.get_mut(fname.as_str()) {
                        Some(slot) => *slot = v,
                        None => {
                            map.insert(fname.to_string(), v);
                        }
                    }
                }
                Ok(Value::Ref(self.heap.alloc(HeapObj::Struct { ty: name.to_string(), fields: map })))
            }
        }
    }

    fn eval_int(
        &mut self,
        e: &'p Expr,
        env: &mut Env<'p>,
        f: &'p FnDecl,
        tracer: &mut dyn Tracer<'p>,
        depth: usize,
    ) -> Result<i64, RuntimeError> {
        match self.eval(e, env, f, tracer, depth)? {
            Value::Int(v) => Ok(v),
            other => Err(self.err(
                ErrorKind::TypeMismatch { expected: "int", found: other.type_name().to_string() },
                f,
                e.span,
            )),
        }
    }

    fn eval_binop(
        &mut self,
        op: BinOp,
        l: Value,
        r: Value,
        f: &FnDecl,
        span: Span,
    ) -> Result<Value, RuntimeError> {
        use BinOp::*;
        match op {
            Add | Sub | Mul | Div | Rem => {
                let (Value::Int(a), Value::Int(b)) = (&l, &r) else {
                    return Err(self.err(
                        ErrorKind::TypeMismatch {
                            expected: "int",
                            found: format!("{} {op} {}", l.type_name(), r.type_name()),
                        },
                        f,
                        span,
                    ));
                };
                let v = match op {
                    Add => a.wrapping_add(*b),
                    Sub => a.wrapping_sub(*b),
                    Mul => a.wrapping_mul(*b),
                    Div | Rem => {
                        if *b == 0 {
                            return Err(self.err(ErrorKind::DivByZero, f, span));
                        }
                        if op == Div {
                            a.wrapping_div(*b)
                        } else {
                            a.wrapping_rem(*b)
                        }
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Int(v))
            }
            Lt | Le | Gt | Ge => {
                let (Value::Int(a), Value::Int(b)) = (&l, &r) else {
                    return Err(self.err(
                        ErrorKind::TypeMismatch {
                            expected: "int",
                            found: format!("{} {op} {}", l.type_name(), r.type_name()),
                        },
                        f,
                        span,
                    ));
                };
                let v = match op {
                    Lt => a < b,
                    Le => a <= b,
                    Gt => a > b,
                    Ge => a >= b,
                    _ => unreachable!(),
                };
                Ok(Value::Bool(v))
            }
            Eq | Ne => {
                let eq = values_equal(&l, &r);
                Ok(Value::Bool(if op == Eq { eq } else { !eq }))
            }
            And | Or => unreachable!("short-circuited in eval"),
        }
    }

    fn eval_builtin(
        &mut self,
        name: &str,
        args: Vec<Value>,
        f: &FnDecl,
        span: Span,
    ) -> Result<Value, RuntimeError> {
        let int = |v: &Value| v.as_int();
        match name {
            "log" => {
                if let Some(Value::Str(s)) = args.first() {
                    self.log_lines.push(s.clone());
                }
                Ok(Value::Unit)
            }
            "blocking_io" => {
                // Models a blocking syscall: burns time on the logical
                // clock. The tracer has already observed the event.
                self.clock += 10;
                Ok(Value::Unit)
            }
            "now" => {
                self.clock += 1;
                Ok(Value::Int(self.clock))
            }
            "min" | "max" | "abs" | "str_of" | "concat" => {
                match (name, args.as_slice()) {
                    ("min", [a, b]) => match (int(a), int(b)) {
                        (Some(a), Some(b)) => Ok(Value::Int(a.min(b))),
                        _ => Err(self.builtin_type_err(name, f, span)),
                    },
                    ("max", [a, b]) => match (int(a), int(b)) {
                        (Some(a), Some(b)) => Ok(Value::Int(a.max(b))),
                        _ => Err(self.builtin_type_err(name, f, span)),
                    },
                    ("abs", [a]) => match int(a) {
                        Some(a) => Ok(Value::Int(a.abs())),
                        None => Err(self.builtin_type_err(name, f, span)),
                    },
                    ("str_of", [a]) => match int(a) {
                        Some(a) => Ok(Value::Str(a.to_string())),
                        None => Err(self.builtin_type_err(name, f, span)),
                    },
                    ("concat", [Value::Str(a), Value::Str(b)]) => {
                        Ok(Value::Str(format!("{a}{b}")))
                    }
                    _ => Err(self.builtin_type_err(name, f, span)),
                }
            }
            other => Err(self.err(
                ErrorKind::UnknownFunction { name: other.to_string() },
                f,
                span,
            )),
        }
    }

    fn builtin_type_err(&self, name: &str, f: &FnDecl, span: Span) -> RuntimeError {
        self.err(
            ErrorKind::TypeMismatch { expected: "builtin argument", found: name.to_string() },
            f,
            span,
        )
    }

    fn eval_method(
        &mut self,
        recv: Value,
        method: &str,
        args: Vec<Value>,
        f: &FnDecl,
        span: Span,
    ) -> Result<Value, RuntimeError> {
        let r = match recv {
            Value::Ref(r) => r,
            Value::Str(s) => {
                return match method {
                    "len" => Ok(Value::Int(s.len() as i64)),
                    _ => Err(self.err(
                        ErrorKind::TypeMismatch {
                            expected: "collection",
                            found: format!("str.{method}"),
                        },
                        f,
                        span,
                    )),
                }
            }
            Value::Null => {
                return Err(self.err(
                    ErrorKind::NullDeref { what: format!("call of .{method}() on null") },
                    f,
                    span,
                ))
            }
            other => {
                return Err(self.err(
                    ErrorKind::TypeMismatch {
                        expected: "collection",
                        found: other.type_name().to_string(),
                    },
                    f,
                    span,
                ))
            }
        };
        match self.heap.get(r) {
            HeapObj::Map { .. } => self.eval_map_method(r, method, args, f, span),
            HeapObj::List { .. } => self.eval_list_method(r, method, args, f, span),
            HeapObj::Struct { ty, .. } => Err(self.err(
                ErrorKind::TypeMismatch { expected: "collection", found: ty.clone() },
                f,
                span,
            )),
        }
    }

    fn eval_map_method(
        &mut self,
        r: RefId,
        method: &str,
        args: Vec<Value>,
        f: &FnDecl,
        span: Span,
    ) -> Result<Value, RuntimeError> {
        let key = |this: &Self, v: Option<&Value>| -> Result<MapKey, RuntimeError> {
            v.and_then(MapKey::from_value)
                .ok_or_else(|| this.err(ErrorKind::BadMapKey, f, span))
        };
        match method {
            "get" => {
                let k = key(self, args.first())?;
                let HeapObj::Map { entries, default } = self.heap.get(r) else {
                    unreachable!()
                };
                Ok(entries.get(&k).cloned().unwrap_or_else(|| default.clone()))
            }
            "put" => {
                let k = key(self, args.first())?;
                let v = args.into_iter().nth(1).unwrap_or(Value::Null);
                let HeapObj::Map { entries, .. } = self.heap.get_mut(r) else { unreachable!() };
                entries.insert(k, v);
                Ok(Value::Unit)
            }
            "remove" => {
                let k = key(self, args.first())?;
                let HeapObj::Map { entries, .. } = self.heap.get_mut(r) else { unreachable!() };
                entries.remove(&k);
                Ok(Value::Unit)
            }
            "contains" => {
                let k = key(self, args.first())?;
                let HeapObj::Map { entries, .. } = self.heap.get(r) else { unreachable!() };
                Ok(Value::Bool(entries.contains_key(&k)))
            }
            "size" => {
                let HeapObj::Map { entries, .. } = self.heap.get(r) else { unreachable!() };
                Ok(Value::Int(entries.len() as i64))
            }
            "keys" => {
                let HeapObj::Map { entries, .. } = self.heap.get(r) else { unreachable!() };
                let items: Vec<Value> = entries.keys().map(|k| k.to_value()).collect();
                Ok(Value::Ref(self.heap.alloc(HeapObj::List { items })))
            }
            "values" => {
                let HeapObj::Map { entries, .. } = self.heap.get(r) else { unreachable!() };
                let items: Vec<Value> = entries.values().cloned().collect();
                Ok(Value::Ref(self.heap.alloc(HeapObj::List { items })))
            }
            "clear" => {
                let HeapObj::Map { entries, .. } = self.heap.get_mut(r) else { unreachable!() };
                entries.clear();
                Ok(Value::Unit)
            }
            other => Err(self.err(
                ErrorKind::TypeMismatch { expected: "map method", found: other.to_string() },
                f,
                span,
            )),
        }
    }

    fn eval_list_method(
        &mut self,
        r: RefId,
        method: &str,
        args: Vec<Value>,
        f: &FnDecl,
        span: Span,
    ) -> Result<Value, RuntimeError> {
        match method {
            "push" => {
                let v = args.into_iter().next().unwrap_or(Value::Null);
                let HeapObj::List { items } = self.heap.get_mut(r) else { unreachable!() };
                items.push(v);
                Ok(Value::Unit)
            }
            "len" => {
                let HeapObj::List { items } = self.heap.get(r) else { unreachable!() };
                Ok(Value::Int(items.len() as i64))
            }
            "get" => {
                let i = args.first().and_then(Value::as_int).unwrap_or(-1);
                let HeapObj::List { items } = self.heap.get(r) else { unreachable!() };
                if i < 0 || i as usize >= items.len() {
                    Err(self.err(
                        ErrorKind::IndexOutOfBounds { index: i, len: items.len() },
                        f,
                        span,
                    ))
                } else {
                    Ok(items[i as usize].clone())
                }
            }
            "set" => {
                let i = args.first().and_then(Value::as_int).unwrap_or(-1);
                let v = args.into_iter().nth(1).unwrap_or(Value::Null);
                let HeapObj::List { items } = self.heap.get_mut(r) else { unreachable!() };
                if i < 0 || i as usize >= items.len() {
                    let len = items.len();
                    Err(self.err(ErrorKind::IndexOutOfBounds { index: i, len }, f, span))
                } else {
                    items[i as usize] = v;
                    Ok(Value::Unit)
                }
            }
            "contains" => {
                let v = args.into_iter().next().unwrap_or(Value::Null);
                let HeapObj::List { items } = self.heap.get(r) else { unreachable!() };
                Ok(Value::Bool(items.iter().any(|x| values_equal(x, &v))))
            }
            "clear" => {
                let HeapObj::List { items } = self.heap.get_mut(r) else { unreachable!() };
                items.clear();
                Ok(Value::Unit)
            }
            other => Err(self.err(
                ErrorKind::TypeMismatch { expected: "list method", found: other.to_string() },
                f,
                span,
            )),
        }
    }
}

/// Value equality: scalars by value, references by identity, null only
/// equal to null.
pub fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Ref(x), Value::Ref(y)) => x == y,
        (Value::Null, Value::Null) => true,
        (Value::Unit, Value::Unit) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, entry: &str, args: Vec<Value>) -> Result<Value, RuntimeError> {
        let p = Program::parse_single("t", src).expect("parse");
        let errs = crate::types::check_program(&p);
        assert!(errs.is_empty(), "type errors: {errs:?}");
        let mut interp = Interp::new(&p);
        interp.call(entry, args, &mut NullTracer)
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let v = run(
            "fn fib(n: int) -> int { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }",
            "fib",
            vec![Value::Int(10)],
        )
        .expect("run");
        assert_eq!(v, Value::Int(55));
    }

    #[test]
    fn while_loop_sum() {
        let v = run(
            "fn sum(n: int) -> int { let t = 0; let i = 1; while (i <= n) { t = t + i; i = i + 1; } return t; }",
            "sum",
            vec![Value::Int(100)],
        )
        .expect("run");
        assert_eq!(v, Value::Int(5050));
    }

    #[test]
    fn structs_and_maps_roundtrip() {
        let v = run(
            "struct Session { id: int, closing: bool }\n\
             global sessions: map<int, Session>;\n\
             fn main() -> bool {\n\
                 let s = new Session { id: 7 };\n\
                 sessions.put(7, s);\n\
                 let t: Session = sessions.get(7);\n\
                 return t != null && t.id == 7 && !t.closing;\n\
             }",
            "main",
            vec![],
        )
        .expect("run");
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn map_get_missing_returns_null() {
        let v = run(
            "struct S { v: int } global m: map<int, S>;\n\
             fn main() -> bool { return m.get(1) == null; }",
            "main",
            vec![],
        )
        .expect("run");
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn null_deref_is_error() {
        let e = run(
            "struct S { v: int } fn main() -> int { let s: S = null; return s.v; }",
            "main",
            vec![],
        )
        .expect_err("null deref");
        assert!(matches!(e.kind, ErrorKind::NullDeref { .. }));
    }

    #[test]
    fn division_by_zero() {
        let e = run("fn f(a: int) -> int { return 1 / a; }", "f", vec![Value::Int(0)])
            .expect_err("div0");
        assert_eq!(e.kind, ErrorKind::DivByZero);
    }

    #[test]
    fn assert_failure_reports_message() {
        let e = run(
            "fn f(x: int) { assert(x > 0, \"x must be positive\"); }",
            "f",
            vec![Value::Int(-1)],
        )
        .expect_err("assert");
        assert_eq!(e.kind, ErrorKind::AssertFailed { message: "x must be positive".into() });
    }

    #[test]
    fn throw_propagates() {
        let e = run(
            "fn inner() { throw \"bad state\"; } fn f() { inner(); }",
            "f",
            vec![],
        )
        .expect_err("throw");
        assert_eq!(e.kind, ErrorKind::Thrown { message: "bad state".into() });
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let p = Program::parse_single("t", "fn f() { while (true) { } }").expect("parse");
        let mut interp = Interp::with_config(
            &p,
            RunConfig { max_steps: 10_000, ..RunConfig::default() },
        );
        let e = interp.call("f", vec![], &mut NullTracer).expect_err("limit");
        assert_eq!(e.kind, ErrorKind::StepLimit);
    }

    #[test]
    fn reentrant_sync_is_error() {
        let e = run(
            "fn inner() { sync (l) { } } fn f() { sync (l) { inner(); } }",
            "f",
            vec![],
        )
        .expect_err("deadlock");
        assert!(matches!(e.kind, ErrorKind::DeadlockSelfLock { .. }));
    }

    #[test]
    fn for_in_iterates_list_snapshot() {
        let v = run(
            "global xs: list<int>;\n\
             fn main() -> int {\n\
                 xs.push(1); xs.push(2); xs.push(3);\n\
                 let t = 0;\n\
                 for x in xs { t = t + x; }\n\
                 return t;\n\
             }",
            "main",
            vec![],
        )
        .expect("run");
        assert_eq!(v, Value::Int(6));
    }

    #[test]
    fn short_circuit_avoids_null_deref() {
        let v = run(
            "struct S { ok: bool } fn f(s: S) -> bool { return s != null && s.ok; }",
            "f",
            vec![Value::Null],
        )
        .expect("run");
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn logical_clock_advances() {
        let v = run(
            "fn f() -> bool { let a = now(); let b = now(); return b > a; }",
            "f",
            vec![],
        )
        .expect("run");
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn log_collects_lines() {
        let p = Program::parse_single("t", "fn f() { log(\"hello\"); log(\"world\"); }")
            .expect("parse");
        let mut interp = Interp::new(&p);
        interp.call("f", vec![], &mut NullTracer).expect("run");
        assert_eq!(interp.log_lines(), ["hello", "world"]);
    }

    #[test]
    fn branch_events_fire_with_guards() {
        struct Count(u64, Vec<bool>);
        impl Tracer<'_> for Count {
            fn on_branch(&mut self, ev: &BranchEvent<'_>) {
                self.0 += 1;
                self.1.push(ev.taken);
            }
        }
        let p = Program::parse_single(
            "t",
            "fn f(x: int) -> int { if (x > 0) { return 1; } return 0; }",
        )
        .expect("parse");
        let mut interp = Interp::new(&p);
        let mut tr = Count(0, Vec::new());
        interp.call("f", vec![Value::Int(5)], &mut tr).expect("run");
        assert_eq!((tr.0, tr.1.clone()), (1, vec![true]));
    }

    #[test]
    fn call_events_carry_arg_paths() {
        struct Paths(Vec<Option<String>>);
        impl Tracer<'_> for Paths {
            fn on_call(&mut self, ev: &CallEvent<'_, '_>) {
                if ev.callee == "target" {
                    self.0 = ev.arg_paths();
                }
            }
        }
        let p = Program::parse_single(
            "t",
            "struct S { v: int } fn target(s: S, n: int) {}\n\
             fn f(sess: S) { target(sess, sess.v + 1); }",
        )
        .expect("parse");
        let mut interp = Interp::new(&p);
        // Build a session object first.
        let mut fields = std::collections::BTreeMap::new();
        fields.insert("v".to_string(), Value::Int(1));
        let r = interp.heap.alloc(HeapObj::Struct { ty: "S".into(), fields });
        let mut tr = Paths(Vec::new());
        interp.call("f", vec![Value::Ref(r)], &mut tr).expect("run");
        assert_eq!(tr.0, vec![Some("sess".to_string()), None]);
    }

    #[test]
    fn sync_events_and_lock_stack() {
        struct Locks(Vec<String>);
        impl Tracer<'_> for Locks {
            fn on_builtin(&mut self, ev: &BuiltinEvent<'_>) {
                if ev.name == "blocking_io" {
                    self.0 = ev.locks.iter().map(|l| l.to_string()).collect();
                }
            }
        }
        let p = Program::parse_single(
            "t",
            "fn f() { sync (tree) { sync (acl) { blocking_io(\"x\"); } } }",
        )
        .expect("parse");
        let mut interp = Interp::new(&p);
        let mut tr = Locks(Vec::new());
        interp.call("f", vec![], &mut tr).expect("run");
        assert_eq!(tr.0, vec!["tree".to_string(), "acl".to_string()]);
    }

    #[test]
    fn block_scoped_lets() {
        let v = run(
            "fn f(c: bool) -> int { let x = 1; if (c) { let x = 5; } return x; }",
            "f",
            vec![Value::Bool(true)],
        )
        .expect("run");
        assert_eq!(v, Value::Int(1));
    }

    #[test]
    fn mutation_inside_branch_persists() {
        let v = run(
            "fn f(c: bool) -> int { let x = 1; if (c) { x = 5; } return x; }",
            "f",
            vec![Value::Bool(true)],
        )
        .expect("run");
        assert_eq!(v, Value::Int(5));
    }

    #[test]
    fn globals_shared_across_calls() {
        let p = Program::parse_single(
            "t",
            "global counter: int;\n\
             fn bump() -> int { counter = counter + 1; return counter; }",
        )
        .expect("parse");
        let mut interp = Interp::new(&p);
        assert_eq!(interp.call("bump", vec![], &mut NullTracer).expect("1"), Value::Int(1));
        assert_eq!(interp.call("bump", vec![], &mut NullTracer).expect("2"), Value::Int(2));
    }

    #[test]
    fn list_methods() {
        let v = run(
            "fn f() -> bool {\n\
                 let xs: list<int> = mk();\n\
                 xs.push(4); xs.push(5);\n\
                 xs.set(0, 9);\n\
                 return xs.len() == 2 && xs.get(0) == 9 && xs.contains(5) && xs[1] == 5;\n\
             }\n\
             global tmp: list<int>;\n\
             fn mk() -> list<int> { return tmp; }",
            "f",
            vec![],
        )
        .expect("run");
        assert_eq!(v, Value::Bool(true));
    }
}
