//! Tseitin conversion from NNF terms to CNF.
//!
//! Every distinct (canonicalized) atom gets a propositional variable; the
//! atom table borrows each atom from the encoded term, so an atom is
//! stored once per query, in the term;
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
/// atoms (`None` for Tseitin auxiliaries). The atoms borrow from the
/// encoded term (`'t`).
#[derive(Debug, Clone, Default)]
pub struct Cnf<'t> {
    pub clauses: Vec<Clause>,
    /// `atom_of[v]` is the atom for variable `v` (index 0 unused).
    pub atom_of: Vec<Option<&'t Atom>>,
    var_of_atom: HashMap<&'t Atom, usize>,
}

impl<'t> Cnf<'t> {
    pub fn new() -> Self {
        Cnf { clauses: Vec::new(), atom_of: vec![None], var_of_atom: HashMap::new() }
    }

    pub fn num_vars(&self) -> usize {
        self.atom_of.len() - 1
    }

    /// SAT variable for `atom`, allocating one if new.
    pub fn var_for_atom(&mut self, atom: &'t Atom) -> usize {
        let next = self.atom_of.len();
        let v = *self.var_of_atom.entry(atom).or_insert(next);
        if v == next {
            self.atom_of.push(Some(atom));
        }
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
    pub fn assert_term(&mut self, term: &'t Term) -> Result<(), bool> {
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
    fn encode(&mut self, term: &'t Term) -> PLit {
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
                // The closing clause (¬l1 | ¬l2 | ... | g) collects the
                // children's literals as they are encoded.
                let mut back: Clause = Vec::with_capacity(ts.len() + 1);
                for t in ts {
                    let l = self.encode(t);
                    back.push(-l);
                }
                let g = self.fresh_aux() as PLit;
                // g -> each lit
                for &l in &back {
                    self.add_clause(vec![-g, -l]);
                }
                // all lits -> g
                back.push(g);
                self.add_clause(back);
                g
            }
            Term::Or(ts) => {
                // The opening clause (¬g | l1 | l2 | ...) collects the
                // children's literals as they are encoded.
                let mut fwd: Clause = Vec::with_capacity(ts.len() + 1);
                fwd.push(0);
                for t in ts {
                    let l = self.encode(t);
                    fwd.push(l);
                }
                let g = self.fresh_aux() as PLit;
                fwd[0] = -g;
                let at = self.clauses.len();
                self.add_clause(fwd);
                // each lit -> g
                for i in 1..self.clauses[at].len() {
                    let l = self.clauses[at][i];
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

    fn assert_cnf(term: &Term) -> (usize, Vec<Clause>) {
        let pre = preprocess(term);
        let mut cnf = Cnf::new();
        cnf.assert_term(&pre).expect("satisfiable-shaped input");
        (cnf.num_vars(), cnf.clauses)
    }

    #[test]
    fn atom_gets_stable_variable() {
        let mut cnf = Cnf::new();
        let a = crate::term::Atom::BoolVar("x".into());
        let v1 = cnf.var_for_atom(&a);
        let v2 = cnf.var_for_atom(&a);
        assert_eq!(v1, v2);
        assert_eq!(cnf.atom_of[v1], Some(&a));
    }

    #[test]
    fn and_produces_definitional_clauses() {
        let t = Term::and([Term::bool_var("a"), Term::bool_var("b")]);
        let (vars, clauses) = assert_cnf(&t);
        // 2 atom vars + 1 aux; clauses: g->a, g->b, (a&b)->g, unit g.
        assert_eq!(vars, 3);
        assert_eq!(clauses, vec![vec![-3, 1], vec![-3, 2], vec![-1, -2, 3], vec![3]]);
    }

    #[test]
    fn or_produces_definitional_clauses() {
        let t = Term::or([Term::bool_var("a"), Term::bool_var("b")]);
        let (vars, clauses) = assert_cnf(&t);
        // g -> (a | b), a -> g, b -> g, unit g.
        assert_eq!(vars, 3);
        assert_eq!(clauses, vec![vec![-3, 1, 2], vec![-1, 3], vec![-2, 3], vec![3]]);
    }

    #[test]
    fn false_term_reports_unsat_early() {
        let mut cnf = Cnf::new();
        assert!(cnf.assert_term(&Term::False).is_err());
    }

    #[test]
    fn single_atom_is_one_unit_clause() {
        let (_, clauses) = assert_cnf(&Term::bool_var("a"));
        assert_eq!(clauses, vec![vec![1]]);
    }
}
