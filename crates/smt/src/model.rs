//! Models: witness assignments returned by satisfiable checks.

use std::collections::HashMap;
use std::fmt;

use crate::term::{Atom, IntOperand, RefOperand, Sort, StrOperand, Term};

/// A value of one of the four sorts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Bool(bool),
    Int(i64),
    /// `None` is null; `Some(id)` an opaque non-null identity.
    Ref(Option<u64>),
    Str(String),
}

impl Value {
    pub fn sort(&self) -> Sort {
        match self {
            Value::Bool(_) => Sort::Bool,
            Value::Int(_) => Sort::Int,
            Value::Ref(_) => Sort::Ref,
            Value::Str(_) => Sort::Str,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Ref(None) => write!(f, "null"),
            Value::Ref(Some(id)) => write!(f, "ref#{id}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// A satisfying assignment. Variables absent from the map were irrelevant
/// to satisfiability and may take any value of their sort.
#[derive(Debug, Clone, Default)]
pub struct Model {
    values: HashMap<String, Value>,
    /// Whether the model was double-checked by evaluation against the
    /// original term. Models from the incomplete repair path may be
    /// unvalidated (satisfiability itself is still exact).
    pub validated: bool,
}

impl Model {
    pub fn new() -> Self {
        Model::default()
    }

    pub fn set(&mut self, var: impl Into<String>, value: Value) {
        self.values.insert(var.into(), value);
    }

    pub fn get(&self, var: &str) -> Option<&Value> {
        self.values.get(var)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.values.iter()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Evaluate a term under this model. Unassigned variables default to
    /// `false` / `0` / `null` / `""` — consistent with how the solver
    /// treats don't-care variables.
    pub fn eval(&self, term: &Term) -> bool {
        match term {
            Term::True => true,
            Term::False => false,
            Term::Atom(a) => self.eval_atom(a),
            Term::Not(t) => !self.eval(t),
            Term::And(ts) => ts.iter().all(|t| self.eval(t)),
            Term::Or(ts) => ts.iter().any(|t| self.eval(t)),
            Term::Implies(a, b) => !self.eval(a) || self.eval(b),
            Term::Iff(a, b) => self.eval(a) == self.eval(b),
        }
    }

    fn int_of(&self, op: &IntOperand) -> i64 {
        match op {
            IntOperand::Const(c) => *c,
            IntOperand::Var(v) => match self.values.get(v) {
                Some(Value::Int(i)) => *i,
                _ => 0,
            },
        }
    }

    fn ref_of(&self, op: &RefOperand) -> Option<u64> {
        match op {
            RefOperand::Null => None,
            RefOperand::Var(v) => match self.values.get(v) {
                Some(Value::Ref(r)) => *r,
                _ => None,
            },
        }
    }

    fn str_of(&self, op: &StrOperand) -> String {
        match op {
            StrOperand::Lit(s) => s.clone(),
            StrOperand::Var(v) => match self.values.get(v) {
                Some(Value::Str(s)) => s.clone(),
                _ => String::new(),
            },
        }
    }

    fn eval_atom(&self, atom: &Atom) -> bool {
        match atom {
            Atom::BoolVar(v) => matches!(self.values.get(v), Some(Value::Bool(true))),
            Atom::IntCmp(a, op, b) => op.eval(self.int_of(a), self.int_of(b)),
            Atom::RefEq(a, b) => self.ref_of(a) == self.ref_of(b),
            Atom::StrEq(a, b) => self.str_of(a) == self.str_of(b),
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<_> = self.values.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        write!(f, "{{")?;
        for (i, (k, v)) in entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k} = {v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{CmpOp, Term};

    #[test]
    fn eval_paper_rule_under_model() {
        let rule = Term::and([
            Term::not_null("s"),
            Term::bool_var("s.isClosing").not(),
            Term::int_cmp_c("s.ttl", CmpOp::Gt, 0),
        ]);
        let mut m = Model::new();
        m.set("s", Value::Ref(Some(1)));
        m.set("s.isClosing", Value::Bool(false));
        m.set("s.ttl", Value::Int(30));
        assert!(m.eval(&rule));
        m.set("s.isClosing", Value::Bool(true));
        assert!(!m.eval(&rule));
    }

    #[test]
    fn unassigned_vars_default() {
        let m = Model::new();
        assert!(m.eval(&Term::is_null("p"))); // default ref is null
        assert!(!m.eval(&Term::bool_var("b"))); // default bool is false
        assert!(m.eval(&Term::int_cmp_c("x", CmpOp::Eq, 0))); // default int 0
    }

    #[test]
    fn display_is_sorted_and_readable() {
        let mut m = Model::new();
        m.set("b", Value::Int(2));
        m.set("a", Value::Bool(true));
        assert_eq!(m.to_string(), "{a = true, b = 2}");
    }
}
