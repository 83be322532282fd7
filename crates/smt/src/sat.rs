//! A CDCL SAT solver.
//!
//! Conflict-driven clause learning with two-watched-literal propagation,
//! first-UIP conflict analysis, VSIDS-style activity ordering with decay,
//! and Luby-free geometric restarts. Sized for the formulas LISA produces
//! (tens to low thousands of variables) while remaining robust on the
//! adversarial instances the property tests generate.

use crate::cnf::{plit_var, Clause, PLit};

/// Assignment value of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarVal {
    Undef,
    True,
    False,
}

impl VarVal {
    fn from_bool(b: bool) -> VarVal {
        if b {
            VarVal::True
        } else {
            VarVal::False
        }
    }
}

/// Outcome of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfying assignment, indexed by variable (index 0 unused).
    Sat(Vec<bool>),
    Unsat,
    /// The solver gave up: a resource budget (conflicts or decisions) was
    /// exhausted before the search concluded. Neither a model nor a proof
    /// of unsatisfiability exists; callers must treat this conservatively.
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClauseRef(usize);

/// The CDCL solver. Clauses may be added between `solve` calls and
/// learned clauses persist, so the lazy DPLL(T) loop in
/// [`crate::solver`] adds each theory blocking clause to one solver.
#[derive(Debug)]
pub struct SatSolver {
    num_vars: usize,
    clauses: Vec<Clause>,
    /// watches[lit_index(l)] = clauses watching literal l.
    watches: Vec<Vec<ClauseRef>>,
    assign: Vec<VarVal>,
    /// Reason clause for each implied variable (None for decisions).
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    trail: Vec<PLit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    conflicts_since_restart: u64,
    restart_limit: u64,
    /// Set when an added clause made the instance unsatisfiable at level 0;
    /// sticky so later `solve` calls agree with the `add_clause` verdict.
    unsat: bool,
    /// Resource budget: total conflicts (cumulative across `solve` calls,
    /// so the refinement rounds of one DPLL(T) query share one budget).
    /// `None` means unbounded. Exhaustion yields [`SatOutcome::Unknown`].
    pub max_conflicts: Option<u64>,
    /// Resource budget on decisions, same semantics as `max_conflicts`.
    pub max_decisions: Option<u64>,
    pub stats: SatStats,
}

/// Counters exposed for benchmarks and experiment reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct SatStats {
    pub decisions: u64,
    pub propagations: u64,
    pub conflicts: u64,
    pub learned_clauses: u64,
    pub restarts: u64,
}

fn lit_index(l: PLit) -> usize {
    let v = plit_var(l);
    2 * v + usize::from(l < 0)
}

fn value_of(assign: &[VarVal], l: PLit) -> VarVal {
    match assign[plit_var(l)] {
        VarVal::Undef => VarVal::Undef,
        VarVal::True => VarVal::from_bool(l > 0),
        VarVal::False => VarVal::from_bool(l < 0),
    }
}

impl SatSolver {
    pub fn new(num_vars: usize) -> Self {
        SatSolver {
            num_vars,
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2 * (num_vars + 1)],
            assign: vec![VarVal::Undef; num_vars + 1],
            reason: vec![None; num_vars + 1],
            level: vec![0; num_vars + 1],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: vec![0.0; num_vars + 1],
            act_inc: 1.0,
            conflicts_since_restart: 0,
            restart_limit: 64,
            unsat: false,
            max_conflicts: None,
            max_decisions: None,
            stats: SatStats::default(),
        }
    }

    fn ensure_var(&mut self, v: usize) {
        while self.num_vars < v {
            self.num_vars += 1;
            self.assign.push(VarVal::Undef);
            self.reason.push(None);
            self.level.push(0);
            self.activity.push(0.0);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
        }
    }

    fn value(&self, l: PLit) -> VarVal {
        value_of(&self.assign, l)
    }

    /// Add a clause. Returns `false` if the solver becomes trivially
    /// unsatisfiable (empty clause, or conflicting units at level 0).
    pub fn add_clause(&mut self, mut clause: Clause) -> bool {
        // Always integrate new clauses at decision level 0: this keeps the
        // watched-literal invariants trivially valid for clauses whose
        // watches would otherwise already be falsified mid-search.
        self.backtrack(0);
        if self.unsat {
            return false;
        }
        for &l in &clause {
            self.ensure_var(plit_var(l));
        }
        // Remove duplicates; drop tautologies.
        clause.sort_unstable();
        clause.dedup();
        for w in clause.windows(2) {
            if w[0] == -w[1] {
                return true; // tautology: l and -l adjacent after sort
            }
        }
        // At decision level 0 we may simplify against fixed assignments.
        if self.trail_lim.is_empty() {
            clause.retain(|&l| self.value(l) != VarVal::False);
            if clause.iter().any(|&l| self.value(l) == VarVal::True) {
                return true;
            }
        }
        match clause.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                let l = clause[0];
                match self.value(l) {
                    VarVal::True => true,
                    VarVal::False => {
                        self.unsat = true;
                        false
                    }
                    VarVal::Undef => {
                        self.enqueue(l, None);
                        if self.propagate().is_none() {
                            true
                        } else {
                            self.unsat = true;
                            false
                        }
                    }
                }
            }
            _ => {
                let cref = ClauseRef(self.clauses.len());
                self.watches[lit_index(clause[0])].push(cref);
                self.watches[lit_index(clause[1])].push(cref);
                self.clauses.push(clause);
                true
            }
        }
    }

    fn enqueue(&mut self, l: PLit, reason: Option<ClauseRef>) {
        let v = plit_var(l);
        debug_assert_eq!(self.assign[v], VarVal::Undef);
        self.assign[v] = VarVal::from_bool(l > 0);
        self.reason[v] = reason;
        self.level[v] = self.trail_lim.len() as u32;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.prop_head < self.trail.len() {
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            self.stats.propagations += 1;
            let falsified = -l;
            let mut i = 0;
            // Take the watch list; we rebuild it as we scan.
            let mut watch_list = std::mem::take(&mut self.watches[lit_index(falsified)]);
            while i < watch_list.len() {
                let cref = watch_list[i];
                let clause = &mut self.clauses[cref.0];
                // Ensure the falsified literal is in slot 1.
                if clause[0] == falsified {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], falsified);
                let first = clause[0];
                if value_of(&self.assign, first) == VarVal::True {
                    i += 1;
                    continue; // clause already satisfied
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..clause.len() {
                    if value_of(&self.assign, clause[k]) != VarVal::False {
                        clause.swap(1, k);
                        let new_watch = clause[1];
                        self.watches[lit_index(new_watch)].push(cref);
                        watch_list.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting on `first`.
                if self.value(first) == VarVal::False {
                    // Conflict: restore remaining watches.
                    self.watches[lit_index(falsified)].append(&mut watch_list);
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[lit_index(falsified)] = watch_list;
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.act_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns (learned clause, backtrack level).
    fn analyze(&mut self, conflict: ClauseRef) -> (Clause, u32) {
        let current_level = self.trail_lim.len() as u32;
        let mut learned: Clause = Vec::new();
        let mut seen = vec![false; self.num_vars + 1];
        let mut counter = 0usize;
        let mut cref = conflict;
        let mut trail_idx = self.trail.len();
        let mut asserting_lit: PLit = 0;

        loop {
            for k in 0..self.clauses[cref.0].len() {
                let l = self.clauses[cref.0][k];
                if l == asserting_lit {
                    continue;
                }
                let v = plit_var(l);
                if seen[v] || self.level[v] == 0 {
                    continue;
                }
                seen[v] = true;
                self.bump(v);
                if self.level[v] == current_level {
                    counter += 1;
                } else {
                    learned.push(l);
                }
            }
            // Find next seen literal on the trail (current level).
            loop {
                trail_idx -= 1;
                if seen[plit_var(self.trail[trail_idx])] {
                    break;
                }
            }
            let l = self.trail[trail_idx];
            let v = plit_var(l);
            counter -= 1;
            if counter == 0 {
                asserting_lit = -l;
                break;
            }
            cref = self.reason[v].expect("non-UIP literal must be implied");
            seen[v] = false;
            // The asserting direction: skip the implied literal itself when
            // expanding its reason clause.
            asserting_lit = l;
        }
        learned.insert(0, asserting_lit);
        let bt_level =
            learned.iter().skip(1).map(|&l| self.level[plit_var(l)]).max().unwrap_or(0);
        (learned, bt_level)
    }

    fn backtrack(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("level checked");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail non-empty above limit");
                let v = plit_var(l);
                self.assign[v] = VarVal::Undef;
                self.reason[v] = None;
            }
        }
        self.prop_head = self.prop_head.min(self.trail.len());
    }

    fn pick_branch_var(&self) -> Option<usize> {
        (1..=self.num_vars)
            .filter(|&v| self.assign[v] == VarVal::Undef)
            .max_by(|&a, &b| {
                self.activity[a].partial_cmp(&self.activity[b]).unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Solve the current clause set. Clauses added since the last call
    /// join the search, and learned clauses carry over: each is a 1UIP
    /// resolvent of clauses in the database, so it stays implied by it.
    pub fn solve(&mut self) -> SatOutcome {
        // Restart from scratch at level 0 each call (learned clauses kept).
        self.backtrack(0);
        if self.unsat {
            return SatOutcome::Unsat;
        }
        if self.propagate().is_some() {
            return SatOutcome::Unsat;
        }
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                self.conflicts_since_restart += 1;
                if self.trail_lim.is_empty() {
                    return SatOutcome::Unsat;
                }
                if self.max_conflicts.is_some_and(|b| self.stats.conflicts > b) {
                    self.backtrack(0);
                    return SatOutcome::Unknown;
                }
                let (learned, bt) = self.analyze(conflict);
                self.backtrack(bt);
                self.stats.learned_clauses += 1;
                let asserting = learned[0];
                if learned.len() == 1 {
                    if self.value(asserting) == VarVal::Undef {
                        self.enqueue(asserting, None);
                    } else if self.value(asserting) == VarVal::False {
                        return SatOutcome::Unsat;
                    }
                } else {
                    let cref = ClauseRef(self.clauses.len());
                    self.watches[lit_index(learned[0])].push(cref);
                    self.watches[lit_index(learned[1])].push(cref);
                    self.clauses.push(learned);
                    if self.value(asserting) == VarVal::Undef {
                        self.enqueue(asserting, Some(cref));
                    }
                }
                self.act_inc *= 1.0 / 0.95;
                if self.conflicts_since_restart >= self.restart_limit {
                    self.conflicts_since_restart = 0;
                    self.restart_limit = (self.restart_limit * 3) / 2;
                    self.stats.restarts += 1;
                    self.backtrack(0);
                }
            } else {
                match self.pick_branch_var() {
                    None => {
                        let model = (0..=self.num_vars)
                            .map(|v| self.assign[v] == VarVal::True)
                            .collect();
                        return SatOutcome::Sat(model);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        if self.max_decisions.is_some_and(|b| self.stats.decisions > b) {
                            self.backtrack(0);
                            return SatOutcome::Unknown;
                        }
                        self.trail_lim.push(self.trail.len());
                        // Phase: default to false — atoms in LISA formulas
                        // are predominantly guards that fail on the
                        // interesting paths.
                        self.enqueue(-(v as PLit), None);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(clauses: &[&[PLit]], n: usize) -> SatOutcome {
        let mut s = SatSolver::new(n);
        for c in clauses {
            if !s.add_clause(c.to_vec()) {
                return SatOutcome::Unsat;
            }
        }
        s.solve()
    }

    fn check_model(clauses: &[&[PLit]], model: &[bool]) {
        for c in clauses {
            assert!(
                c.iter().any(|&l| model[plit_var(l)] == (l > 0)),
                "clause {c:?} unsatisfied by {model:?}"
            );
        }
    }

    #[test]
    fn trivial_sat() {
        match solve(&[&[1], &[2, -1]], 2) {
            SatOutcome::Sat(m) => check_model(&[&[1], &[2, -1]], &m),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn trivial_unsat() {
        assert_eq!(solve(&[&[1], &[-1]], 1), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new(1);
        assert!(!s.add_clause(vec![]));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_ij: pigeon i in hole j. Vars: p11=1 p12=2 p21=3 p22=4 p31=5 p32=6.
        let clauses: Vec<&[PLit]> = vec![
            &[1, 2],
            &[3, 4],
            &[5, 6],
            &[-1, -3],
            &[-1, -5],
            &[-3, -5],
            &[-2, -4],
            &[-2, -6],
            &[-4, -6],
        ];
        assert_eq!(solve(&clauses, 6), SatOutcome::Unsat);
    }

    #[test]
    fn chain_implication_sat() {
        // x1 -> x2 -> ... -> x20, x1 asserted.
        let mut s = SatSolver::new(20);
        assert!(s.add_clause(vec![1]));
        for v in 1..20 {
            assert!(s.add_clause(vec![-(v as PLit), v as PLit + 1]));
        }
        match s.solve() {
            SatOutcome::Sat(m) => assert!(m[1..=20].iter().all(|&b| b)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_handled() {
        let mut s = SatSolver::new(2);
        assert!(s.add_clause(vec![1, 1, -1])); // tautology
        assert!(s.add_clause(vec![2, 2]));
        assert!(matches!(s.solve(), SatOutcome::Sat(_)));
    }

    #[test]
    fn incremental_clause_addition_flips_to_unsat() {
        let mut s = SatSolver::new(2);
        assert!(s.add_clause(vec![1, 2]));
        assert!(matches!(s.solve(), SatOutcome::Sat(_)));
        s.add_clause(vec![-1]);
        s.add_clause(vec![-2]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn conflict_budget_exhaustion_reports_unknown() {
        // Pigeonhole needs search; a zero-conflict budget cannot finish.
        let clauses: Vec<&[PLit]> = vec![
            &[1, 2],
            &[3, 4],
            &[5, 6],
            &[-1, -3],
            &[-1, -5],
            &[-3, -5],
            &[-2, -4],
            &[-2, -6],
            &[-4, -6],
        ];
        let mut s = SatSolver::new(6);
        s.max_conflicts = Some(0);
        for c in &clauses {
            assert!(s.add_clause(c.to_vec()));
        }
        assert_eq!(s.solve(), SatOutcome::Unknown);
    }

    #[test]
    fn decision_budget_exhaustion_reports_unknown() {
        let mut s = SatSolver::new(2);
        s.max_decisions = Some(0);
        assert!(s.add_clause(vec![1, 2]));
        assert_eq!(s.solve(), SatOutcome::Unknown);
    }

    #[test]
    fn generous_budget_matches_unbudgeted_verdict() {
        let clauses: Vec<&[PLit]> =
            vec![&[1, 2], &[-1, -2], &[2, 3], &[-2, -3], &[1, 3], &[-1, -3]];
        let mut s = SatSolver::new(3);
        s.max_conflicts = Some(1_000_000);
        for c in &clauses {
            if !s.add_clause(c.to_vec()) {
                panic!("level-0 conflict not expected here");
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn learned_clauses_stay_valid_across_repeated_solves() {
        // The DPLL(T) loop's shape: solve, block the model, solve again,
        // on one solver. Three pigeons in three holes (p_ij = 3i + j + 1)
        // have exactly the 6 permutations as models; enumerating them
        // must find each once and then Unsat, although clauses learned
        // while blocking earlier models stay in the database.
        let mut clauses: Vec<Vec<PLit>> = Vec::new();
        for i in 0..3 {
            clauses.push((0..3).map(|j| 3 * i + j + 1).collect());
        }
        for j in 0..3 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    clauses.push(vec![-(3 * a + j + 1), -(3 * b + j + 1)]);
                }
            }
        }
        let mut s = SatSolver::new(9);
        for c in &clauses {
            assert!(s.add_clause(c.clone()));
        }
        let mut models: Vec<Vec<bool>> = Vec::new();
        loop {
            match s.solve() {
                SatOutcome::Sat(m) => {
                    let refs: Vec<&[PLit]> = clauses.iter().map(Vec::as_slice).collect();
                    check_model(&refs, &m);
                    assert!(!models.contains(&m), "model {m:?} found twice");
                    let block: Vec<PLit> =
                        (1..=9).map(|v| if m[v as usize] { -v } else { v }).collect();
                    models.push(m);
                    clauses.push(block.clone());
                    if !s.add_clause(block) {
                        break;
                    }
                }
                SatOutcome::Unsat => break,
                SatOutcome::Unknown => panic!("no budget is set"),
            }
        }
        assert_eq!(models.len(), 6, "{models:?}");
        assert!(s.stats.learned_clauses > 0, "enumeration must learn clauses");
        assert_eq!(s.solve(), SatOutcome::Unsat, "a refuted database stays refuted");
    }

    #[test]
    fn xor_chain_parity_unsat() {
        // (x1 xor x2), (x2 xor x3), (x1 xor x3) with odd parity is UNSAT:
        // encode xor a b = (a|b) & (-a|-b).
        let clauses: Vec<&[PLit]> =
            vec![&[1, 2], &[-1, -2], &[2, 3], &[-2, -3], &[1, 3], &[-1, -3]];
        assert_eq!(solve(&clauses, 3), SatOutcome::Unsat);
    }
}
