//! Theory solver for the LISA fragment.
//!
//! Given a full boolean assignment to theory atoms, decides whether the
//! conjunction of the corresponding theory literals is consistent:
//!
//! - **References / strings**: equality logic. Positive equalities merge
//!   union-find classes (with merge reasons kept in an explanation graph);
//!   disequalities are checked against the classes. Distinct string
//!   literals are implicitly disequal; `null` is a distinguished node.
//! - **Integers**: difference-bound constraints `x - y <= c` and bounds
//!   `x <= c` / `x >= c` (strict forms tightened by 1 — the sort is the
//!   integers). Consistency is Bellman-Ford negative-cycle detection;
//!   disequalities `x != y` / `x != c` conflict only when the bounds force
//!   equality.
//!
//! On conflict the solver returns the *indices* of the literals involved
//! (a theory lemma), which the DPLL(T) driver turns into a blocking clause.
//!
//! Literals borrow their atoms from the query, and the solver's nodes are
//! keyed by the atoms' own names: only the witness model owns strings.

use std::collections::HashMap;

use crate::term::{Atom, CmpOp, IntOperand, RefOperand, StrOperand};

/// A theory literal: an atom of the query asserted with a polarity.
pub type TheoryLit<'a> = (&'a Atom, bool);

/// Result of a theory check.
#[derive(Debug)]
pub enum TheoryResult {
    /// Consistent; carries a witness assignment usable for model building.
    Consistent(TheoryModel),
    /// Inconsistent; the indices (into the input slice) of a conflicting
    /// subset of literals.
    Conflict(Vec<usize>),
}

/// Witness values for the theory variables.
#[derive(Debug, Clone, Default)]
pub struct TheoryModel {
    pub ints: HashMap<String, i64>,
    /// `None` = null, `Some(id)` = distinct non-null identity.
    pub refs: HashMap<String, Option<u64>>,
    pub strs: HashMap<String, String>,
}

// ---------------------------------------------------------------------------
// Equality graph (refs and strings share the machinery)
// ---------------------------------------------------------------------------

/// A node of an equality graph: `null`, a variable or a string literal,
/// named by the query's own strings. Ordered by kind, then name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum EqKey<'a> {
    Null,
    Var(&'a str),
    Lit(&'a str),
}

impl EqKey<'_> {
    fn of_ref(o: &RefOperand) -> EqKey<'_> {
        match o {
            RefOperand::Null => EqKey::Null,
            RefOperand::Var(v) => EqKey::Var(v),
        }
    }

    fn of_str(o: &StrOperand) -> EqKey<'_> {
        match o {
            StrOperand::Lit(s) => EqKey::Lit(s),
            StrOperand::Var(v) => EqKey::Var(v),
        }
    }
}

/// Union-find with an explanation graph: every union records the literal
/// index that justified it, so conflicts can cite exactly the merge path.
struct EqGraph<'a> {
    node_of: HashMap<EqKey<'a>, usize>,
    parent: Vec<usize>,
    rank: Vec<u8>,
    /// Undirected explanation edges: (a, b, literal index).
    edges: Vec<(usize, usize, usize)>,
    /// Disequalities to check: (a, b, literal index).
    diseqs: Vec<(usize, usize, usize)>,
}

impl<'a> EqGraph<'a> {
    fn new() -> Self {
        EqGraph {
            node_of: HashMap::new(),
            parent: Vec::new(),
            rank: Vec::new(),
            edges: Vec::new(),
            diseqs: Vec::new(),
        }
    }

    fn node(&mut self, key: EqKey<'a>) -> usize {
        let (parent, rank) = (&mut self.parent, &mut self.rank);
        *self.node_of.entry(key).or_insert_with(|| {
            let n = parent.len();
            parent.push(n);
            rank.push(0);
            n
        })
    }

    /// The `(name, node)` pairs of the variable nodes, or of the literal
    /// nodes, sorted: ids and fresh values are handed out in this order,
    /// so it must not depend on `HashMap` iteration order.
    fn sorted(&self, literals: bool) -> Vec<(&'a str, usize)> {
        let mut out: Vec<(&'a str, usize)> = self
            .node_of
            .iter()
            .filter_map(|(k, &n)| match (*k, literals) {
                (EqKey::Var(v), false) | (EqKey::Lit(v), true) => Some((v, n)),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize, lit_idx: usize) {
        self.edges.push((a, b, lit_idx));
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.rank[ra] < self.rank[rb] {
            self.parent[ra] = rb;
        } else if self.rank[ra] > self.rank[rb] {
            self.parent[rb] = ra;
        } else {
            self.parent[rb] = ra;
            self.rank[ra] += 1;
        }
    }

    /// Literal indices on some explanation path between `a` and `b`
    /// (BFS over the explanation edges).
    fn explain(&self, a: usize, b: usize) -> Vec<usize> {
        if a == b {
            return Vec::new();
        }
        let n = self.parent.len();
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for &(x, y, lit) in &self.edges {
            adj[x].push((y, lit));
            adj[y].push((x, lit));
        }
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        let mut visited = vec![false; n];
        visited[a] = true;
        queue.push_back(a);
        while let Some(x) = queue.pop_front() {
            if x == b {
                break;
            }
            for &(y, lit) in &adj[x] {
                if !visited[y] {
                    visited[y] = true;
                    prev[y] = Some((x, lit));
                    queue.push_back(y);
                }
            }
        }
        let mut lits = Vec::new();
        let mut cur = b;
        while let Some((p, lit)) = prev[cur] {
            lits.push(lit);
            cur = p;
            if cur == a {
                break;
            }
        }
        lits
    }

    /// Check all disequalities; on violation return the conflicting lits.
    fn check(&mut self) -> Option<Vec<usize>> {
        for i in 0..self.diseqs.len() {
            let (a, b, lit) = self.diseqs[i];
            if self.find(a) == self.find(b) {
                let mut conflict = self.explain(a, b);
                conflict.push(lit);
                return Some(conflict);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Integer difference constraints
// ---------------------------------------------------------------------------

/// One difference constraint `a - b <= c`, justified by literal `lit`.
#[derive(Debug, Clone, Copy)]
struct DiffEdge {
    a: usize,
    b: usize,
    c: i64,
    lit: usize,
}

/// A node of the difference graph, named by the query's own strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum IntKey<'a> {
    /// The zero the constants are pinned against.
    Zero,
    Var(&'a str),
    Const(i64),
}

struct IntSolver<'a> {
    node_of: HashMap<IntKey<'a>, usize>,
    edges: Vec<DiffEdge>,
    /// Disequalities: (operand a, operand b, literal index).
    diseqs: Vec<(usize, usize, usize)>,
    zero: usize,
    /// Constant nodes pinned to a value: (node, value).
    pins: Vec<(usize, i64)>,
}

impl<'a> IntSolver<'a> {
    fn new() -> Self {
        let mut s = IntSolver {
            node_of: HashMap::new(),
            edges: Vec::new(),
            diseqs: Vec::new(),
            zero: 0,
            pins: Vec::new(),
        };
        s.zero = s.node(IntKey::Zero);
        s
    }

    /// Number of nodes.
    fn len(&self) -> usize {
        self.node_of.len()
    }

    fn node(&mut self, key: IntKey<'a>) -> usize {
        let n = self.node_of.len();
        *self.node_of.entry(key).or_insert(n)
    }

    /// Node for an operand; constants become pinned nodes.
    fn operand(&mut self, op: &'a IntOperand) -> usize {
        match op {
            IntOperand::Var(v) => self.node(IntKey::Var(v)),
            IntOperand::Const(c) => {
                let n = self.node(IntKey::Const(*c));
                if !self.pins.iter().any(|&(p, _)| p == n) {
                    self.pins.push((n, *c));
                    let zero = self.zero;
                    // n - zero <= c and zero - n <= -c pin the node to c.
                    self.edges.push(DiffEdge { a: n, b: zero, c: *c, lit: usize::MAX });
                    self.edges.push(DiffEdge { a: zero, b: n, c: -*c, lit: usize::MAX });
                }
                n
            }
        }
    }

    /// Assert `a op b` (after polarity resolution), justified by `lit`.
    fn assert_cmp(&mut self, a: &'a IntOperand, op: CmpOp, b: &'a IntOperand, lit: usize) {
        let na = self.operand(a);
        let nb = self.operand(b);
        match op {
            CmpOp::Le => self.edges.push(DiffEdge { a: na, b: nb, c: 0, lit }),
            CmpOp::Lt => self.edges.push(DiffEdge { a: na, b: nb, c: -1, lit }),
            CmpOp::Ge => self.edges.push(DiffEdge { a: nb, b: na, c: 0, lit }),
            CmpOp::Gt => self.edges.push(DiffEdge { a: nb, b: na, c: -1, lit }),
            CmpOp::Eq => {
                self.edges.push(DiffEdge { a: na, b: nb, c: 0, lit });
                self.edges.push(DiffEdge { a: nb, b: na, c: 0, lit });
            }
            CmpOp::Ne => self.diseqs.push((na, nb, lit)),
        }
    }

    /// Bellman-Ford from a virtual source. Returns either feasible
    /// potentials (node values) or the literals of a negative cycle.
    fn feasible(&self) -> Result<Vec<i64>, Vec<usize>> {
        let n = self.len();
        // Difference constraint a - b <= c  =>  graph edge b -> a, weight c;
        // dist(a) <= dist(b) + c.
        let mut dist = vec![0i64; n];
        let mut pred: Vec<Option<usize>> = vec![None; n]; // edge index
        for round in 0..n {
            let mut changed = false;
            for (ei, e) in self.edges.iter().enumerate() {
                let cand = dist[e.b].saturating_add(e.c);
                if cand < dist[e.a] {
                    dist[e.a] = cand;
                    pred[e.a] = Some(ei);
                    changed = true;
                    if round == n - 1 {
                        // Negative cycle: walk predecessors to collect it.
                        return Err(self.cycle_lits(e.a, &pred));
                    }
                }
            }
            if !changed {
                return Ok(dist);
            }
        }
        Ok(dist)
    }

    fn cycle_lits(&self, start: usize, pred: &[Option<usize>]) -> Vec<usize> {
        // Walk back n steps to land inside the cycle, then collect it.
        let mut node = start;
        for _ in 0..self.len() {
            let ei = pred[node].expect("predecessor exists on relaxation path");
            node = self.edges[ei].b;
        }
        let cycle_start = node;
        let mut lits = Vec::new();
        loop {
            let ei = pred[node].expect("cycle edge");
            let e = self.edges[ei];
            if e.lit != usize::MAX {
                lits.push(e.lit);
            }
            node = e.b;
            if node == cycle_start {
                break;
            }
        }
        lits.sort_unstable();
        lits.dedup();
        lits
    }

    /// Tightest upper bound on `a - b` (shortest path b -> a), or None if
    /// unconstrained. Floyd-Warshall; graphs here are small.
    fn all_pairs(&self) -> Vec<Vec<Option<i64>>> {
        let n = self.len();
        let mut d: Vec<Vec<Option<i64>>> = vec![vec![None; n]; n];
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = Some(0);
        }
        for e in &self.edges {
            let cur = d[e.b][e.a];
            if cur.is_none() || cur.expect("checked") > e.c {
                d[e.b][e.a] = Some(e.c);
            }
        }
        for k in 0..n {
            for i in 0..n {
                if let Some(dik) = d[i][k] {
                    #[allow(clippy::needless_range_loop)] // d is indexed by 3 loops at once
                    for j in 0..n {
                        if let Some(dkj) = d[k][j] {
                            let cand = dik.saturating_add(dkj);
                            if d[i][j].is_none() || d[i][j].expect("checked") > cand {
                                d[i][j] = Some(cand);
                            }
                        }
                    }
                }
            }
        }
        d
    }

    /// Full check: feasibility, then disequalities, then model values.
    fn check(&self) -> Result<HashMap<String, i64>, Vec<usize>> {
        let dist = self.feasible()?;
        if !self.diseqs.is_empty() {
            let d = self.all_pairs();
            for &(a, b, lit) in &self.diseqs {
                // Equality is forced iff a - b <= 0 and b - a <= 0 tight.
                if d[b][a] == Some(0) && d[a][b] == Some(0) {
                    // Conflict involves the disequality plus every bound
                    // literal (coarse but sound explanation).
                    let mut lits: Vec<usize> = self
                        .edges
                        .iter()
                        .filter(|e| e.lit != usize::MAX)
                        .map(|e| e.lit)
                        .collect();
                    lits.push(lit);
                    lits.sort_unstable();
                    lits.dedup();
                    return Err(lits);
                }
            }
        }
        // Build values: potential = dist - dist[zero] so constants land on
        // their pinned values.
        let z = dist[self.zero];
        let mut vals: HashMap<String, i64> = HashMap::new();
        let mut value: Vec<i64> = dist.iter().map(|&d| d - z).collect();
        // Repair disequality collisions where slack allows.
        if !self.diseqs.is_empty() {
            let d = self.all_pairs();
            for &(a, b, _) in &self.diseqs {
                if value[a] == value[b] {
                    // Try lowering a by 1 if a - b can be <= -1.
                    let can_lower = d[b][a].is_none_or(|ub| ub <= -1 || ub >= 1);
                    // Simple nudge: move `a` down one if nothing pins it.
                    let pinned = self.pins.iter().any(|&(p, _)| p == a);
                    if !pinned && can_lower {
                        value[a] -= 1;
                    } else if !self.pins.iter().any(|&(p, _)| p == b) {
                        value[b] -= 1;
                    }
                }
            }
        }
        for (key, &node) in &self.node_of {
            if let IntKey::Var(var) = key {
                vals.insert(var.to_string(), value[node]);
            }
        }
        Ok(vals)
    }
}

// ---------------------------------------------------------------------------
// Top-level check
// ---------------------------------------------------------------------------

/// Decide consistency of a conjunction of theory literals.
pub fn check(literals: &[TheoryLit<'_>]) -> TheoryResult {
    let mut refs = EqGraph::new();
    let mut strs = EqGraph::new();
    let mut ints = IntSolver::new();
    let mut bools: HashMap<&str, (bool, usize)> = HashMap::new();

    let null_node = refs.node(EqKey::Null);
    let _ = null_node;

    for (idx, &(atom, positive)) in literals.iter().enumerate() {
        match atom {
            Atom::BoolVar(v) => {
                if let Some(&(prev, prev_idx)) = bools.get(v.as_str()) {
                    if prev != positive {
                        return TheoryResult::Conflict(vec![prev_idx, idx]);
                    }
                } else {
                    bools.insert(v, (positive, idx));
                }
            }
            Atom::IntCmp(a, op, b) => {
                let eff = if positive { *op } else { op.negate() };
                ints.assert_cmp(a, eff, b, idx);
            }
            Atom::RefEq(a, b) => {
                let na = refs.node(EqKey::of_ref(a));
                let nb = refs.node(EqKey::of_ref(b));
                if positive {
                    refs.union(na, nb, idx);
                } else {
                    refs.diseqs.push((na, nb, idx));
                }
            }
            Atom::StrEq(a, b) => {
                let na = strs.node(EqKey::of_str(a));
                let nb = strs.node(EqKey::of_str(b));
                if positive {
                    strs.union(na, nb, idx);
                } else {
                    strs.diseqs.push((na, nb, idx));
                }
            }
        }
    }

    // Distinct string literals are implicitly unequal: if two different
    // literal nodes were merged, the merge path is the conflict. Sorted
    // so the *same* conflict (and hence the same blocking clause) is
    // reported on every solve of the same query — HashMap iteration
    // order must never pick which lemma the SAT core learns.
    let lit_nodes = strs.sorted(true);
    for i in 0..lit_nodes.len() {
        for j in (i + 1)..lit_nodes.len() {
            let (a, b) = (lit_nodes[i].1, lit_nodes[j].1);
            if strs.find(a) == strs.find(b) {
                return TheoryResult::Conflict(strs.explain(a, b));
            }
        }
    }

    if let Some(conflict) = refs.check() {
        return TheoryResult::Conflict(conflict);
    }
    if let Some(conflict) = strs.check() {
        return TheoryResult::Conflict(conflict);
    }
    let int_vals = match ints.check() {
        Ok(v) => v,
        Err(conflict) => return TheoryResult::Conflict(conflict),
    };

    // Build the witness model.
    let mut model = TheoryModel { ints: int_vals, ..Default::default() };

    // Reference classes: class containing $null is null; others distinct.
    let null_root = {
        let n = refs.node(EqKey::Null);
        refs.find(n)
    };
    let mut class_ids: HashMap<usize, u64> = HashMap::new();
    let mut next_id = 1u64;
    // Sorted by variable name: class ids are assigned in first-use
    // order, so the witness must not depend on HashMap iteration order —
    // the same query must yield the same model on every solve (the
    // byte-identity invariant the memo is held to).
    for (var, node) in refs.sorted(false) {
        let root = refs.find(node);
        let val = if root == null_root {
            None
        } else {
            Some(*class_ids.entry(root).or_insert_with(|| {
                let id = next_id;
                next_id += 1;
                id
            }))
        };
        model.refs.insert(var.to_string(), val);
    }

    // String classes: a class with a literal takes the literal value (no
    // class holds two: that was a conflict above); otherwise a fresh
    // value distinct from all literals.
    let mut class_str: HashMap<usize, String> = HashMap::new();
    for &(lit, node) in &lit_nodes {
        let root = strs.find(node);
        class_str.insert(root, lit.to_string());
    }
    let mut fresh = 0u64;
    // Sorted for the same reason as the reference variables: `$fresh-N`
    // numbering is first-use order and must be reproducible across solves.
    for (var, node) in strs.sorted(false) {
        let root = strs.find(node);
        let val = class_str
            .entry(root)
            .or_insert_with(|| {
                fresh += 1;
                format!("$fresh-{fresh}")
            })
            .clone();
        model.strs.insert(var.to_string(), val);
    }

    // Booleans (kept for completeness; the SAT layer already fixed them).
    let _ = bools;

    TheoryResult::Consistent(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Atom, CmpOp, IntOperand, RefOperand, StrOperand};

    /// [`check`] over literals that own their atoms.
    fn check_owned(lits: &[(Atom, bool)]) -> TheoryResult {
        let borrowed: Vec<TheoryLit<'_>> = lits.iter().map(|(a, p)| (a, *p)).collect();
        check(&borrowed)
    }

    fn int_cmp(a: &str, op: CmpOp, c: i64) -> Atom {
        Atom::IntCmp(IntOperand::Var(a.into()), op, IntOperand::Const(c))
    }

    fn int_vv(a: &str, op: CmpOp, b: &str) -> Atom {
        Atom::IntCmp(IntOperand::Var(a.into()), op, IntOperand::Var(b.into()))
    }

    #[test]
    fn bounds_conflict_detected() {
        let lits = vec![(int_cmp("x", CmpOp::Gt, 5), true), (int_cmp("x", CmpOp::Lt, 3), true)];
        match check_owned(&lits) {
            TheoryResult::Conflict(c) => {
                assert!(c.contains(&0) && c.contains(&1));
            }
            TheoryResult::Consistent(_) => panic!("expected conflict"),
        }
    }

    #[test]
    fn bounds_consistent_with_model() {
        let lits = vec![(int_cmp("x", CmpOp::Ge, 3), true), (int_cmp("x", CmpOp::Le, 3), true)];
        match check_owned(&lits) {
            TheoryResult::Consistent(m) => assert_eq!(m.ints["x"], 3),
            TheoryResult::Conflict(_) => panic!("expected consistent"),
        }
    }

    #[test]
    fn transitive_var_chain_conflict() {
        // x < y, y < z, z < x is a negative cycle.
        let lits = vec![
            (int_vv("x", CmpOp::Lt, "y"), true),
            (int_vv("y", CmpOp::Lt, "z"), true),
            (int_vv("z", CmpOp::Lt, "x"), true),
        ];
        match check_owned(&lits) {
            TheoryResult::Conflict(c) => assert_eq!(c, vec![0, 1, 2]),
            TheoryResult::Consistent(_) => panic!("expected conflict"),
        }
    }

    #[test]
    fn forced_equality_vs_disequality() {
        // x <= 3, x >= 3, x != 3.
        let lits = vec![
            (int_cmp("x", CmpOp::Le, 3), true),
            (int_cmp("x", CmpOp::Ge, 3), true),
            (int_cmp("x", CmpOp::Ne, 3), true),
        ];
        assert!(matches!(check_owned(&lits), TheoryResult::Conflict(_)));
    }

    #[test]
    fn negated_literal_flips_operator() {
        // !(x > 0) && x >= 1 is a conflict.
        let lits = vec![(int_cmp("x", CmpOp::Gt, 0), false), (int_cmp("x", CmpOp::Ge, 1), true)];
        assert!(matches!(check_owned(&lits), TheoryResult::Conflict(_)));
    }

    #[test]
    fn ref_equality_chain_conflict() {
        // a == b, b == null, a != null.
        let eq = |a: &str, b: RefOperand| (Atom::RefEq(RefOperand::Var(a.into()), b), true);
        let lits = vec![
            eq("a", RefOperand::Var("b".into())),
            eq("b", RefOperand::Null),
            (Atom::RefEq(RefOperand::Var("a".into()), RefOperand::Null), false),
        ];
        match check_owned(&lits) {
            TheoryResult::Conflict(c) => {
                assert!(c.contains(&2), "conflict must cite the disequality");
            }
            TheoryResult::Consistent(_) => panic!("expected conflict"),
        }
    }

    #[test]
    fn ref_model_assigns_null_and_distinct_ids() {
        let lits = vec![
            (Atom::RefEq(RefOperand::Var("a".into()), RefOperand::Null), true),
            (Atom::RefEq(RefOperand::Var("b".into()), RefOperand::Null), false),
        ];
        match check_owned(&lits) {
            TheoryResult::Consistent(m) => {
                assert_eq!(m.refs["a"], None);
                assert!(m.refs["b"].is_some());
            }
            TheoryResult::Conflict(_) => panic!("expected consistent"),
        }
    }

    #[test]
    fn distinct_string_literals_conflict_when_merged() {
        let lits = vec![
            (
                Atom::StrEq(StrOperand::Var("s".into()), StrOperand::Lit("open".into())),
                true,
            ),
            (
                Atom::StrEq(StrOperand::Var("s".into()), StrOperand::Lit("closed".into())),
                true,
            ),
        ];
        assert!(matches!(check_owned(&lits), TheoryResult::Conflict(_)));
    }

    #[test]
    fn string_model_uses_literal_value() {
        let lits = vec![(
            Atom::StrEq(StrOperand::Var("s".into()), StrOperand::Lit("open".into())),
            true,
        )];
        match check_owned(&lits) {
            TheoryResult::Consistent(m) => assert_eq!(m.strs["s"], "open"),
            TheoryResult::Conflict(_) => panic!("expected consistent"),
        }
    }

    #[test]
    fn bool_same_var_conflicting_polarity() {
        let lits =
            vec![(Atom::BoolVar("f".into()), true), (Atom::BoolVar("f".into()), false)];
        match check_owned(&lits) {
            TheoryResult::Conflict(c) => assert_eq!(c, vec![0, 1]),
            TheoryResult::Consistent(_) => panic!("expected conflict"),
        }
    }

    #[test]
    fn var_var_disequality_repaired_in_model() {
        let lits = vec![(int_vv("x", CmpOp::Ne, "y"), true)];
        match check_owned(&lits) {
            TheoryResult::Consistent(m) => assert_ne!(m.ints["x"], m.ints["y"]),
            TheoryResult::Conflict(_) => panic!("expected consistent"),
        }
    }

    #[test]
    fn constants_are_pinned() {
        let lits = vec![(int_cmp("x", CmpOp::Eq, 42), true)];
        match check_owned(&lits) {
            TheoryResult::Consistent(m) => assert_eq!(m.ints["x"], 42),
            TheoryResult::Conflict(_) => panic!("expected consistent"),
        }
    }
}
