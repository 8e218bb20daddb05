//! A compact CDCL SAT solver: two-watched-literal propagation,
//! first-UIP conflict learning, VSIDS decision heuristics with phase
//! saving, and Luby restarts — hand-rolled on `std` alone, like every
//! other engine in this workspace.
//!
//! The equivalence checker drives it incrementally: the miter's
//! Tseitin clauses accumulate across queries, and each query solves
//! under *assumptions* (MiniSat-style: assumptions become the first
//! decisions, and a conflict that forces backtracking past them is an
//! UNSAT answer for that query without poisoning the clause database).
//! Conflict budgets keep individual queries bounded; an exhausted
//! budget is reported as [`SatResult::Unknown`], never misread as a
//! verdict.

use crate::aig::{Aig, Lit, Node};

/// A boolean variable, numbered from 0.
pub type Var = u32;

/// A solver literal: variable shifted left once, low bit set for
/// negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatLit(u32);

impl SatLit {
    /// The positive literal of `v`.
    #[must_use]
    pub fn pos(v: Var) -> Self {
        SatLit(v << 1)
    }

    /// The negative literal of `v`.
    #[must_use]
    pub fn neg(v: Var) -> Self {
        SatLit((v << 1) | 1)
    }

    /// The underlying variable.
    #[must_use]
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// `true` when this is the negative literal.
    #[must_use]
    pub fn negated(self) -> bool {
        self.0 & 1 == 1
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for SatLit {
    type Output = SatLit;
    fn not(self) -> SatLit {
        SatLit(self.0 ^ 1)
    }
}

/// Outcome of one [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable; a model is available via [`Solver::model_value`].
    Sat,
    /// Unsatisfiable under the given assumptions.
    Unsat,
    /// The conflict budget ran out before a decision was reached.
    Unknown,
}

/// Tri-state assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

const NO_REASON: u32 = u32::MAX;

/// Activity-ordered indexed max-heap over variables.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<Var>,
    /// Position of each var in `heap`, `usize::MAX` when absent.
    pos: Vec<usize>,
}

impl VarHeap {
    fn contains(&self, v: Var) -> bool {
        (v as usize) < self.pos.len() && self.pos[v as usize] != usize::MAX
    }

    fn grow(&mut self, n: usize) {
        while self.pos.len() < n {
            self.pos.push(usize::MAX);
        }
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.grow(v as usize + 1);
        self.pos[v as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("nonempty");
        self.pos[top as usize] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v as usize], act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let p = (i - 1) / 2;
            if act[self.heap[i] as usize] <= act[self.heap[p] as usize] {
                break;
            }
            self.swap(i, p);
            i = p;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[best] as usize] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[best] as usize] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i;
        self.pos[self.heap[j] as usize] = j;
    }
}

/// The CDCL solver.
#[derive(Debug, Default)]
pub struct Solver {
    /// Clause database; learnt clauses are appended after problem
    /// clauses and never deleted (per-query conflict budgets bound
    /// growth).
    clauses: Vec<Vec<SatLit>>,
    /// Watch lists indexed by literal: clauses currently watching it.
    watches: Vec<Vec<u32>>,
    assign: Vec<LBool>,
    /// Decision level at which each var was assigned.
    level: Vec<u32>,
    /// Clause that implied each var (`NO_REASON` for decisions).
    reason: Vec<u32>,
    trail: Vec<SatLit>,
    /// Trail index where each decision level starts.
    trail_lim: Vec<usize>,
    qhead: usize,
    /// VSIDS activities and the decision heap.
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    /// Saved phases: last assigned polarity per var.
    phase: Vec<bool>,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// `false` after a top-level contradiction: everything is UNSAT.
    ok: bool,
    /// Total conflicts across all queries (statistics).
    total_conflicts: u64,
}

impl Solver {
    /// An empty solver.
    #[must_use]
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            ok: true,
            ..Default::default()
        }
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Total conflicts across all `solve` calls.
    #[must_use]
    pub fn total_conflicts(&self) -> u64 {
        self.total_conflicts
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.assign.len() as Var;
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    fn value_lit(&self, l: SatLit) -> LBool {
        match self.assign[l.var() as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.negated() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
            LBool::False => {
                if l.negated() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
        }
    }

    /// Reads a literal from the most recent `Sat` model. Unassigned
    /// vars (never touched by the search) read `false`.
    #[must_use]
    pub fn model_value(&self, l: SatLit) -> bool {
        match self.value_lit(l) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => l.negated(),
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause (at decision level 0). Returns `false` if the
    /// clause database became unsatisfiable.
    pub fn add_clause(&mut self, lits: &[SatLit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        // Simplify: sort/dedup, drop tautologies and false literals.
        let mut c: Vec<SatLit> = lits.to_vec();
        c.sort_by_key(|l| l.0);
        c.dedup();
        let mut out = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: l ∨ ¬l
            }
            match self.value_lit(l) {
                LBool::True => return true, // satisfied at level 0
                LBool::False => {}          // drop
                LBool::Undef => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(out[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let id = self.clauses.len() as u32;
                self.watches[out[0].index()].push(id);
                self.watches[out[1].index()].push(id);
                self.clauses.push(out);
                true
            }
        }
    }

    fn enqueue(&mut self, l: SatLit, reason: u32) {
        let v = l.var() as usize;
        debug_assert_eq!(self.assign[v], LBool::Undef);
        self.assign[v] = if l.negated() {
            LBool::False
        } else {
            LBool::True
        };
        self.phase[v] = !l.negated();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause id, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            // Clauses watching ¬p must find a new watch or propagate.
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut keep = 0;
            let mut conflict = None;
            let mut i = 0;
            while i < ws.len() {
                let cid = ws[i];
                i += 1;
                let clause = &mut self.clauses[cid as usize];
                if clause[0] == false_lit {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], false_lit);
                let first = clause[0];
                if self.value_lit(first) == LBool::True {
                    ws[keep] = cid;
                    keep += 1;
                    continue;
                }
                // Look for an unwatched non-false literal.
                let mut moved = false;
                for k in 2..self.clauses[cid as usize].len() {
                    let l = self.clauses[cid as usize][k];
                    if self.value_lit(l) != LBool::False {
                        self.clauses[cid as usize].swap(1, k);
                        self.watches[l.index()].push(cid);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflicting.
                ws[keep] = cid;
                keep += 1;
                if self.value_lit(first) == LBool::False {
                    conflict = Some(cid);
                    // Keep the rest of the watch list intact.
                    while i < ws.len() {
                        ws[keep] = ws[i];
                        keep += 1;
                        i += 1;
                    }
                    break;
                }
                self.enqueue(first, cid);
            }
            ws.truncate(keep);
            self.watches[false_lit.index()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        let a = &mut self.activity[v as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bumped(v, &self.activity);
    }

    /// First-UIP conflict analysis. Returns the learnt clause (the
    /// asserting literal first) and the backtrack level.
    fn analyze(&mut self, confl: u32) -> (Vec<SatLit>, u32) {
        let mut learnt: Vec<SatLit> = vec![SatLit::pos(0)]; // slot 0 patched below
        let mut counter = 0usize;
        let mut p: Option<SatLit> = None;
        let mut idx = self.trail.len();
        let mut reason_id = confl;
        let current = self.decision_level();
        loop {
            let clause = &self.clauses[reason_id as usize];
            // For a reason clause, lits[0] is the literal it implied.
            let start = usize::from(p.is_some());
            let qs: Vec<SatLit> = clause[start..].to_vec();
            for q in qs {
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next seen literal on the trail.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var() as usize] = false;
            counter -= 1;
            p = Some(pl);
            if counter == 0 {
                break;
            }
            reason_id = self.reason[pl.var() as usize];
            debug_assert_ne!(reason_id, NO_REASON);
        }
        learnt[0] = !p.expect("UIP found");
        // Backtrack to the second-highest level in the clause; move
        // that literal into the watch slot.
        let mut bt = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            bt = self.level[learnt[1].var() as usize];
        }
        for l in &learnt {
            self.seen[l.var() as usize] = false;
        }
        (learnt, bt)
    }

    fn cancel_until(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let bound = self.trail_lim[lvl as usize];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail nonempty");
            let v = l.var();
            self.assign[v as usize] = LBool::Undef;
            self.reason[v as usize] = NO_REASON;
            self.heap.insert(v, &self.activity);
        }
        self.trail_lim.truncate(lvl as usize);
        self.qhead = self.trail.len();
    }

    /// Records a learnt clause and enqueues its asserting literal.
    fn learn(&mut self, learnt: Vec<SatLit>) {
        let assert_lit = learnt[0];
        if learnt.len() == 1 {
            self.enqueue(assert_lit, NO_REASON);
            return;
        }
        let id = self.clauses.len() as u32;
        self.watches[learnt[0].index()].push(id);
        self.watches[learnt[1].index()].push(id);
        self.clauses.push(learnt);
        self.enqueue(assert_lit, id);
    }

    /// The reluctant-doubling (Luby) sequence, 1-indexed.
    fn luby(mut i: u64) -> u64 {
        // Find k with 2^k - 1 >= i; descend.
        loop {
            let mut k = 1u32;
            while (1u64 << k) - 1 < i {
                k += 1;
            }
            if (1u64 << k) - 1 == i {
                return 1u64 << (k - 1);
            }
            i -= (1u64 << (k - 1)) - 1;
        }
    }

    /// Solves under `assumptions` with a conflict budget (0 means
    /// unlimited). The solver always returns at decision level 0, so
    /// clauses can be added between calls.
    pub fn solve(&mut self, assumptions: &[SatLit], conflict_limit: u64) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        let mut conflicts = 0u64;
        let mut restarts = 0u64;
        let mut restart_budget = 64 * Self::luby(1);
        let result = 'outer: loop {
            if let Some(confl) = self.propagate() {
                conflicts += 1;
                self.total_conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    break SatResult::Unsat;
                }
                // A conflict while only assumption decisions are on
                // the stack can still be resolved by learning — only
                // level 0 means truly unsatisfiable. Analyze always.
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                self.learn(learnt);
                self.var_inc /= 0.95;
                if conflict_limit != 0 && conflicts >= conflict_limit {
                    break SatResult::Unknown;
                }
                if conflicts >= restart_budget {
                    restarts += 1;
                    restart_budget = conflicts + 64 * Self::luby(restarts + 1);
                    self.cancel_until(0);
                }
            } else {
                // Place assumptions as the first decisions.
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value_lit(a) {
                        LBool::True => {
                            // Already implied: dummy level keeps the
                            // level↔assumption indexing aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => break 'outer SatResult::Unsat,
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, NO_REASON);
                            continue 'outer;
                        }
                    }
                }
                // Pick a branching variable.
                let mut decision = None;
                while let Some(v) = self.heap.pop(&self.activity) {
                    if self.assign[v as usize] == LBool::Undef {
                        decision = Some(v);
                        break;
                    }
                }
                match decision {
                    None => break SatResult::Sat,
                    Some(v) => {
                        let lit = if self.phase[v as usize] {
                            SatLit::pos(v)
                        } else {
                            SatLit::neg(v)
                        };
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, NO_REASON);
                    }
                }
            }
        };
        if result != SatResult::Sat {
            self.cancel_until(0);
        }
        // For Sat, the model lives in `assign`; the *next* call (or
        // clause addition) must therefore start by cancelling.
        result
    }

    /// Retracts the model trail after a `Sat` answer so clauses can be
    /// added again. Harmless when already at level 0.
    pub fn retract(&mut self) {
        self.cancel_until(0);
    }
}

/// Lazy Tseitin encoding of one AIG into one incremental solver: each
/// node gets a variable the first time a query reaches its cone, and
/// each AND node its three clauses. The sweep in [`cec`](crate::cec)
/// and the oracle's models each hold one. Queries use assumptions
/// only, so learnt clauses stay sound across queries. (The oracle's
/// reachability, which adds non-tautological blocking clauses, builds
/// its own private `Enc`.)
pub(crate) struct Enc {
    pub(crate) solver: Solver,
    sat_var: Vec<Option<Var>>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Enc {
            solver: Solver::new(),
            sat_var: vec![None],
        }
    }

    /// Tseitin-encodes a cone into the solver on demand.
    pub(crate) fn encode(&mut self, aig: &Aig, root: Lit) -> Var {
        while self.sat_var.len() < aig.len() {
            self.sat_var.push(None);
        }
        let mut stack = vec![root.node()];
        while let Some(n) = stack.pop() {
            if self.sat_var[n].is_some() {
                continue;
            }
            match aig.node(Lit::new(n, false)) {
                Node::Const => {
                    let v = self.solver.new_var();
                    self.sat_var[n] = Some(v);
                    self.solver.add_clause(&[SatLit::neg(v)]);
                }
                Node::Input(_) => {
                    self.sat_var[n] = Some(self.solver.new_var());
                }
                Node::And(a, b) => {
                    let (na, nb) = (a.node(), b.node());
                    if self.sat_var[na].is_none() || self.sat_var[nb].is_none() {
                        stack.push(n);
                        if self.sat_var[na].is_none() {
                            stack.push(na);
                        }
                        if self.sat_var[nb].is_none() {
                            stack.push(nb);
                        }
                        continue;
                    }
                    let v = self.solver.new_var();
                    self.sat_var[n] = Some(v);
                    let o = SatLit::pos(v);
                    let sa = self.lit_of(a);
                    let sb = self.lit_of(b);
                    // o ↔ a ∧ b.
                    self.solver.add_clause(&[!o, sa]);
                    self.solver.add_clause(&[!o, sb]);
                    self.solver.add_clause(&[o, !sa, !sb]);
                }
            }
        }
        self.sat_var[root.node()].expect("encoded")
    }

    /// The solver literal of an encoded AIG literal.
    pub(crate) fn lit_of(&self, l: Lit) -> SatLit {
        let v = self.sat_var[l.node()].expect("fanin encoded");
        if l.negated() {
            SatLit::neg(v)
        } else {
            SatLit::pos(v)
        }
    }

    /// A literal's value in the current model; cones outside the
    /// encoding default to input-false.
    pub(crate) fn model_lit(&self, l: Lit) -> bool {
        let base = self
            .sat_var
            .get(l.node())
            .copied()
            .flatten()
            .map(|v| self.solver.model_value(SatLit::pos(v)))
            .unwrap_or(false);
        base ^ l.negated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive satisfiability over ≤ 16 vars.
    fn brute_force(num_vars: usize, clauses: &[Vec<SatLit>], assumps: &[SatLit]) -> bool {
        'outer: for m in 0..(1u32 << num_vars) {
            let val = |l: SatLit| ((m >> l.var()) & 1 == 1) != l.negated();
            if !assumps.iter().all(|&a| val(a)) {
                continue;
            }
            for c in clauses {
                if !c.iter().any(|&l| val(l)) {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    fn build(num_vars: usize, clauses: &[Vec<SatLit>]) -> (Solver, bool) {
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        let mut ok = true;
        for c in clauses {
            ok = s.add_clause(c);
            if !ok {
                break;
            }
        }
        (s, ok)
    }

    #[test]
    fn trivial_cases() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[SatLit::pos(a)]));
        assert_eq!(s.solve(&[], 0), SatResult::Sat);
        assert!(s.model_value(SatLit::pos(a)));
        s.retract();
        assert_eq!(s.solve(&[SatLit::neg(a)], 0), SatResult::Unsat);
        // The failed assumption must not poison later queries.
        assert_eq!(s.solve(&[SatLit::pos(a)], 0), SatResult::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[SatLit::pos(a)]));
        assert!(!s.add_clause(&[SatLit::neg(a)]));
        assert_eq!(s.solve(&[], 0), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j. Each pigeon somewhere; no two
        // pigeons share a hole.
        let mut s = Solver::new();
        let mut p = [[SatLit::pos(0); 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = SatLit::pos(s.new_var());
            }
        }
        for row in &p {
            assert!(s.add_clause(&[row[0], row[1]]));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    assert!(s.add_clause(&[!a, !b]));
                }
            }
        }
        assert_eq!(s.solve(&[], 0), SatResult::Unsat);
    }

    #[test]
    fn differential_random_3cnf_vs_brute_force() {
        // Hand-rolled xorshift so the test stays dependency-light.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..300 {
            let num_vars = 4 + (rng() % 6) as usize; // 4..=9
            let num_clauses = 2 + (rng() % 30) as usize;
            let clauses: Vec<Vec<SatLit>> = (0..num_clauses)
                .map(|_| {
                    let len = 1 + (rng() % 3) as usize;
                    (0..len)
                        .map(|_| {
                            let v = (rng() % num_vars as u64) as Var;
                            if rng() & 1 == 1 {
                                SatLit::pos(v)
                            } else {
                                SatLit::neg(v)
                            }
                        })
                        .collect()
                })
                .collect();
            let assumps: Vec<SatLit> = if round % 3 == 0 {
                let v = (rng() % num_vars as u64) as Var;
                vec![if rng() & 1 == 1 {
                    SatLit::pos(v)
                } else {
                    SatLit::neg(v)
                }]
            } else {
                Vec::new()
            };
            let want = brute_force(num_vars, &clauses, &assumps);
            let (mut s, ok) = build(num_vars, &clauses);
            let got = if !ok {
                false
            } else {
                match s.solve(&assumps, 0) {
                    SatResult::Sat => {
                        // The model must actually satisfy everything.
                        for c in &clauses {
                            assert!(
                                c.iter().any(|&l| s.model_value(l)),
                                "round {round}: model violates clause"
                            );
                        }
                        for &a in &assumps {
                            assert!(s.model_value(a), "round {round}: model violates assumption");
                        }
                        true
                    }
                    SatResult::Unsat => false,
                    SatResult::Unknown => panic!("no budget set"),
                }
            };
            assert_eq!(got, want, "round {round} disagrees with brute force");
        }
    }

    #[test]
    fn incremental_queries_share_learnt_clauses() {
        // xor chain: x0 ^ x1 = t0, t0 ^ x2 = t1 … query equivalences.
        let mut s = Solver::new();
        let xs: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
        // x5 = x0 ^ x1 ^ x2 ^ x3 ^ x4 via Tseitin xor clauses chained.
        let mut acc = xs[0];
        for &x in &xs[1..5] {
            let t = s.new_var();
            let (a, b, o) = (SatLit::pos(acc), SatLit::pos(x), SatLit::pos(t));
            assert!(s.add_clause(&[!a, !b, !o]));
            assert!(s.add_clause(&[a, b, !o]));
            assert!(s.add_clause(&[a, !b, o]));
            assert!(s.add_clause(&[!a, b, o]));
            acc = t;
        }
        // Tie x5 to the chain output.
        assert!(s.add_clause(&[SatLit::pos(xs[5]), SatLit::neg(acc)]));
        assert!(s.add_clause(&[SatLit::neg(xs[5]), SatLit::pos(acc)]));
        // Query 1: all inputs 0 forces x5 = 0.
        let mut assumps: Vec<SatLit> = xs[..5].iter().map(|&v| SatLit::neg(v)).collect();
        assumps.push(SatLit::pos(xs[5]));
        assert_eq!(s.solve(&assumps, 0), SatResult::Unsat);
        // Query 2: one input high forces x5 = 1.
        let mut assumps: Vec<SatLit> = xs[1..5].iter().map(|&v| SatLit::neg(v)).collect();
        assumps.push(SatLit::pos(xs[0]));
        assumps.push(SatLit::neg(xs[5]));
        assert_eq!(s.solve(&assumps, 0), SatResult::Unsat);
        // Query 3: satisfiable case.
        assert_eq!(s.solve(&[SatLit::pos(xs[5])], 0), SatResult::Sat);
        s.retract();
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        // A hard pigeonhole instance with a 1-conflict budget.
        let mut s = Solver::new();
        let n = 6; // 6 pigeons, 5 holes
        let holes = 5;
        let mut p = vec![vec![SatLit::pos(0); holes]; n];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = SatLit::pos(s.new_var());
            }
        }
        for row in &p {
            assert!(s.add_clause(&row.clone()));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    assert!(s.add_clause(&[!a, !b]));
                }
            }
        }
        assert_eq!(s.solve(&[], 1), SatResult::Unknown);
        // And without the budget it decides.
        assert_eq!(s.solve(&[], 0), SatResult::Unsat);
    }
}
