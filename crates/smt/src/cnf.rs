//! Tseitin conversion from NNF terms to CNF.
//!
//! Every distinct (canonicalized) atom gets a propositional variable;
//! internal `And`/`Or` nodes get fresh auxiliary variables. Because the
//! input is already in NNF we only need the implications in one direction
//! plus the converse for equisatisfiability (we emit full equivalences —
//! the formulas here are small and the symmetry keeps the encoding
//! obviously correct).

use std::collections::HashMap;

use crate::term::{Atom, Term};

/// A propositional literal: positive `v` or negative `-v`, `v >= 1`.
pub type PLit = i32;

/// Variable index of a literal.
pub fn plit_var(l: PLit) -> usize {
    l.unsigned_abs() as usize
}

/// A clause: a disjunction of literals.
pub type Clause = Vec<PLit>;

/// CNF instance plus the atom table mapping SAT variables back to theory
/// atoms (`None` for Tseitin auxiliaries).
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    pub clauses: Vec<Clause>,
    /// `atom_of[v]` is the atom for variable `v` (index 0 unused).
    pub atom_of: Vec<Option<Atom>>,
    var_of_atom: HashMap<Atom, usize>,
}

impl Cnf {
    pub fn new() -> Self {
        Cnf { clauses: Vec::new(), atom_of: vec![None], var_of_atom: HashMap::new() }
    }

    pub fn num_vars(&self) -> usize {
        self.atom_of.len() - 1
    }

    /// SAT variable for `atom`, allocating one if new.
    pub fn var_for_atom(&mut self, atom: &Atom) -> usize {
        if let Some(&v) = self.var_of_atom.get(atom) {
            return v;
        }
        let v = self.atom_of.len();
        self.atom_of.push(Some(atom.clone()));
        self.var_of_atom.insert(atom.clone(), v);
        v
    }

    fn fresh_aux(&mut self) -> usize {
        let v = self.atom_of.len();
        self.atom_of.push(None);
        v
    }

    pub fn add_clause(&mut self, clause: Clause) {
        self.clauses.push(clause);
    }

    /// Encode an NNF `term`, asserting it at the top level.
    ///
    /// Returns `Ok(())`, or `Err(false)` when the term is trivially
    /// unsatisfiable (`False`), to let callers skip SAT entirely.
    pub fn assert_term(&mut self, term: &Term) -> Result<(), bool> {
        match term {
            Term::True => Ok(()),
            Term::False => Err(false),
            _ => {
                let lit = self.encode(term);
                self.add_clause(vec![lit]);
                Ok(())
            }
        }
    }

    /// Tseitin-encode a (sub)term, returning the literal representing it.
    fn encode(&mut self, term: &Term) -> PLit {
        match term {
            Term::True | Term::False => {
                // Represent constants with a dedicated always-true aux var.
                let v = self.fresh_aux() as PLit;
                if matches!(term, Term::True) {
                    self.add_clause(vec![v]);
                    v
                } else {
                    self.add_clause(vec![v]);
                    -v
                }
            }
            Term::Atom(a) => self.var_for_atom(a) as PLit,
            Term::Not(inner) => match inner.as_ref() {
                Term::Atom(a) => -(self.var_for_atom(a) as PLit),
                // NNF guarantees negation only on atoms, but stay total.
                other => -self.encode(other),
            },
            Term::And(ts) => {
                let lits: Vec<PLit> = ts.iter().map(|t| self.encode(t)).collect();
                let g = self.fresh_aux() as PLit;
                // g -> each lit
                for &l in &lits {
                    self.add_clause(vec![-g, l]);
                }
                // all lits -> g
                let mut back: Clause = lits.iter().map(|&l| -l).collect();
                back.push(g);
                self.add_clause(back);
                g
            }
            Term::Or(ts) => {
                let lits: Vec<PLit> = ts.iter().map(|t| self.encode(t)).collect();
                let g = self.fresh_aux() as PLit;
                // g -> (l1 | l2 | ...)
                let mut fwd: Clause = lits.clone();
                fwd.insert(0, -g);
                self.add_clause(fwd);
                // each lit -> g
                for &l in &lits {
                    self.add_clause(vec![-l, g]);
                }
                g
            }
            Term::Implies(_, _) | Term::Iff(_, _) => {
                unreachable!("input to CNF conversion must be in NNF")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nnf::preprocess;
    use crate::term::Term;

    fn assert_cnf(term: &Term) -> Cnf {
        let mut cnf = Cnf::new();
        cnf.assert_term(&preprocess(term)).expect("satisfiable-shaped input");
        cnf
    }

    #[test]
    fn atom_gets_stable_variable() {
        let mut cnf = Cnf::new();
        let a = crate::term::Atom::BoolVar("x".into());
        let v1 = cnf.var_for_atom(&a);
        let v2 = cnf.var_for_atom(&a);
        assert_eq!(v1, v2);
        assert_eq!(cnf.atom_of[v1].as_ref(), Some(&a));
    }

    #[test]
    fn and_produces_definitional_clauses() {
        let t = Term::and([Term::bool_var("a"), Term::bool_var("b")]);
        let cnf = assert_cnf(&t);
        // 2 atom vars + 1 aux; clauses: g->a, g->b, (a&b)->g, unit g.
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.clauses.len(), 4);
    }

    #[test]
    fn false_term_reports_unsat_early() {
        let mut cnf = Cnf::new();
        assert!(cnf.assert_term(&Term::False).is_err());
    }

    #[test]
    fn single_atom_is_one_unit_clause() {
        let cnf = assert_cnf(&Term::bool_var("a"));
        assert_eq!(cnf.clauses, vec![vec![1]]);
    }
}
