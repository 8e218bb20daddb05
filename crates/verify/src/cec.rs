//! Simulation-guided SAT sweeping and miter proving.
//!
//! Both designs lower into ONE shared AIG over the same cut inputs,
//! so structural hashing alone already merges identical cones. What
//! remains is fraig-style sweeping: 256-lane random simulation
//! buckets nodes by signature, candidate-equal pairs are proved (or
//! refuted) with incremental miter SAT calls, and proven pairs merge
//! — rebuilding a reduced AIG bottom-up in which most output pairs
//! collapse to the same literal before the final miters ever run.
//! Counterexamples from failed proofs are stamped back into the
//! signatures so later buckets are refined by everything the solver
//! has learnt.

use std::collections::HashMap;

use crate::aig::{Aig, Lit, Node, XorShift, FALSE, SIG_WORDS};
use crate::error::VerifyError;
use crate::sat::{Enc, SatResult};

/// Tuning knobs for one CEC run.
#[derive(Debug, Clone)]
pub struct CecOptions {
    /// PRNG seed for the random signature patterns.
    pub seed: u64,
    /// Number of 256-pattern random simulation words.
    pub sim_rounds: usize,
    /// Run the fraig sweep (merging internal equivalences) before the
    /// output miters. Disabling falls back to structural hashing plus
    /// output-level SAT only.
    pub sweep: bool,
    /// Conflict budget per sweep-phase SAT query (0 = unlimited). An
    /// exhausted budget just skips the merge — never unsound.
    pub sweep_conflict_limit: u64,
    /// Conflict budget per final output miter (0 = unlimited). An
    /// exhausted budget aborts with `ResourceLimit`.
    pub final_conflict_limit: u64,
}

impl Default for CecOptions {
    fn default() -> Self {
        CecOptions {
            seed: 0x1bd5_41f8_9c3a_7e62,
            sim_rounds: 2,
            sweep: true,
            sweep_conflict_limit: 2_000,
            final_conflict_limit: 0,
        }
    }
}

/// Counters describing how a check was discharged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CecStats {
    /// AND nodes in the shared (pre-sweep) AIG.
    pub aig_ands: usize,
    /// AND nodes in the reduced AIG after sweeping.
    pub reduced_ands: usize,
    /// Random simulation patterns applied.
    pub sim_patterns: usize,
    /// Node pairs merged by sweep-phase SAT proofs.
    pub merged: usize,
    /// Total SAT queries (each up to two solver calls).
    pub sat_queries: u64,
    /// Total solver conflicts across all queries.
    pub sat_conflicts: u64,
    /// Output pairs already identical after sweeping (no final miter
    /// SAT needed).
    pub outputs_by_hash: usize,
    /// Output pairs checked.
    pub outputs_checked: usize,
}

/// A distinguishing input assignment over the shared cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawCounterexample {
    /// Index of the failing pair in the caller's list.
    pub pair: usize,
    /// One bit per shared AIG input, in input-creation order.
    pub inputs: Vec<bool>,
    /// Value of the first design's function under `inputs`.
    pub golden_value: bool,
    /// Value of the second design's function under `inputs`.
    pub revised_value: bool,
}

/// Outcome of a CEC run: proved equivalent, or a counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecResult {
    /// Every output pair proved equal.
    Equivalent,
    /// A distinguishing assignment was found (already verified against
    /// the AIG itself; simulator replay happens one level up).
    Counterexample(RawCounterexample),
}

/// Checks the given `(golden, revised)` literal pairs for functional
/// equality over all shared inputs. `labels[i]` names pair `i` for
/// resource-limit errors.
///
/// # Errors
///
/// [`VerifyError::ResourceLimit`] when a final miter exhausts its
/// conflict budget — inconclusive, never a verdict.
pub fn check_pairs(
    aig: &Aig,
    pairs: &[(Lit, Lit)],
    labels: &[String],
    opts: &CecOptions,
) -> Result<(CecResult, CecStats), VerifyError> {
    let mut stats = CecStats {
        aig_ands: aig.num_ands(),
        outputs_checked: pairs.len(),
        ..CecStats::default()
    };
    // Structural hashing is itself a proof: when every miter pair
    // strashed to the same literal (identity checks, EDIF round
    // trips, any resynthesis the two-level rewriter normalizes away),
    // the check is complete before any simulation or SAT.
    if pairs.iter().all(|&(g, r)| g == r) {
        stats.reduced_ands = stats.aig_ands;
        stats.outputs_by_hash = pairs.len();
        return Ok((CecResult::Equivalent, stats));
    }
    let mut sweeper = Sweeper::new(aig, opts);
    sweeper.run(opts.sweep, &mut stats);
    stats.reduced_ands = sweeper.red.num_ands();
    stats.sim_patterns = sweeper.sig_len * 64;

    // Final miters over the reduced literals.
    for (i, &(g, r)) in pairs.iter().enumerate() {
        let rg = sweeper.repr_lit(g);
        let rr = sweeper.repr_lit(r);
        if rg == rr {
            stats.outputs_by_hash += 1;
            continue;
        }
        stats.sat_queries += 1;
        match sweeper.prove_eq(rg, rr, opts.final_conflict_limit) {
            Proof::Equal => {}
            Proof::Unknown => {
                return Err(VerifyError::ResourceLimit {
                    function: labels[i].clone(),
                    conflicts: opts.final_conflict_limit,
                });
            }
            Proof::Diff(pattern) => {
                stats.sat_conflicts = sweeper.enc.solver.total_conflicts();
                // Cross-check against the reduced AIG itself before
                // reporting (the SAT model must reproduce there).
                let gv = sweeper.red.eval(rg, &pattern);
                let rv = sweeper.red.eval(rr, &pattern);
                debug_assert_ne!(gv, rv, "SAT model does not distinguish the miter");
                return Ok((
                    CecResult::Counterexample(RawCounterexample {
                        pair: i,
                        inputs: pattern,
                        golden_value: gv,
                        revised_value: rv,
                    }),
                    stats,
                ));
            }
        }
    }
    stats.sat_conflicts = sweeper.enc.solver.total_conflicts();
    Ok((CecResult::Equivalent, stats))
}

enum Proof {
    Equal,
    Diff(Vec<bool>),
    Unknown,
}

/// The sweep state: a reduced AIG rebuilt bottom-up, signatures, the
/// candidate classes, and the lazy Tseitin encoding into one
/// incremental solver.
struct Sweeper<'a> {
    orig: &'a Aig,
    red: Aig,
    /// Original node → representative literal in `red`.
    repr: Vec<Lit>,
    /// `red` input literals in creation order.
    red_inputs: Vec<Lit>,
    /// Per-`red`-node signature words.
    sigs: Vec<Vec<u64>>,
    /// Current signature length in u64 words.
    sig_len: usize,
    /// Random input patterns for `red` inputs (parallel to
    /// `red_inputs`), extended when counterexamples are stamped in.
    input_sigs: Vec<Vec<u64>>,
    /// Members eligible for candidate matching (reduced literals).
    class_members: Vec<Lit>,
    /// Normalized signature → members, rebuilt after stamping.
    classes: HashMap<Vec<u64>, Vec<Lit>>,
    /// Counterexample patterns awaiting a stamp-in flush.
    pending: Vec<Vec<bool>>,
    /// Lazy Tseitin encoding of `red`.
    enc: Enc,
    sweep_budget: u64,
}

impl<'a> Sweeper<'a> {
    fn new(orig: &'a Aig, opts: &CecOptions) -> Self {
        let mut rng = XorShift(opts.seed | 1);
        let sig_len = opts.sim_rounds.max(1) * SIG_WORDS;
        let input_sigs: Vec<Vec<u64>> = (0..orig.num_inputs())
            .map(|_| (0..sig_len).map(|_| rng.next()).collect())
            .collect();
        Sweeper {
            orig,
            red: Aig::new(),
            repr: Vec::with_capacity(orig.len()),
            red_inputs: Vec::new(),
            sigs: vec![vec![0; sig_len]], // node 0: constant false
            sig_len,
            input_sigs,
            class_members: vec![FALSE],
            classes: HashMap::new(),
            pending: Vec::new(),
            enc: Enc::new(),
            sweep_budget: opts.sweep_conflict_limit,
        }
    }

    /// A literal's representative in the reduced AIG.
    fn repr_lit(&self, l: Lit) -> Lit {
        let r = self.repr[l.node()];
        if l.negated() {
            !r
        } else {
            r
        }
    }

    fn run(&mut self, sweep: bool, stats: &mut CecStats) {
        if sweep {
            self.rebuild_classes();
        }
        for idx in 0..self.orig.len() {
            let lit = match self.orig.node(Lit::new(idx, false)) {
                Node::Const => FALSE,
                Node::Input(_) => {
                    let l = self.red.input();
                    self.red_inputs.push(l);
                    l
                }
                Node::And(a, b) => {
                    let ra = self.repr_lit(a);
                    let rb = self.repr_lit(b);
                    let m = self.red.and(ra, rb);
                    if sweep {
                        self.try_merge(m, stats)
                    } else {
                        m
                    }
                }
            };
            self.repr.push(lit);
        }
    }

    /// Attempts to merge `m` with a candidate-equal class member;
    /// returns the representative to use downstream.
    fn try_merge(&mut self, m: Lit, stats: &mut CecStats) -> Lit {
        self.ensure_sigs();
        if m.node() >= self.sigs.len() {
            // Shouldn't happen after ensure_sigs; defensive.
            return m;
        }
        let (key, inv_m) = normalize(&self.sigs[m.node()]);
        let candidates = self.classes.get(&key).cloned().unwrap_or_default();
        for c in candidates {
            // Signatures agree up to phase: node(m)^inv_m ≈ node(c)^inv_c,
            // so the conjectured literal equal to `m` is node(c) with
            // the relative phase folded in.
            let (_, inv_c) = normalize(&self.sigs[c.node()]);
            let conj = Lit::new(c.node(), inv_m ^ inv_c ^ m.negated());
            if conj.node() == m.node() {
                continue; // same node: nothing to merge
            }
            stats.sat_queries += 1;
            match self.prove_eq(m, conj, self.sweep_budget) {
                Proof::Equal => {
                    stats.merged += 1;
                    return conj;
                }
                Proof::Diff(pattern) => {
                    self.pending.push(pattern);
                    if self.pending.len() >= 64 {
                        self.stamp_pending();
                        // Classes refined: re-bucket this node.
                        return self.try_merge(m, stats);
                    }
                }
                Proof::Unknown => {}
            }
        }
        self.classes.entry(key).or_default().push(m);
        self.class_members.push(m);
        m
    }

    /// Extends `sigs` to cover every node currently in `red`.
    fn ensure_sigs(&mut self) {
        while self.sigs.len() < self.red.len() {
            let idx = self.sigs.len();
            let sig = match self.red.node(Lit::new(idx, false)) {
                Node::Const => vec![0; self.sig_len],
                Node::Input(k) => self.input_sigs[k as usize].clone(),
                Node::And(a, b) => {
                    let mut w = Vec::with_capacity(self.sig_len);
                    for i in 0..self.sig_len {
                        let wa = self.sig_word(a, i);
                        let wb = self.sig_word(b, i);
                        w.push(wa & wb);
                    }
                    w
                }
            };
            self.sigs.push(sig);
        }
    }

    fn sig_word(&self, l: Lit, i: usize) -> u64 {
        let w = self.sigs[l.node()][i];
        if l.negated() {
            !w
        } else {
            w
        }
    }

    /// Folds pending counterexample patterns into one new signature
    /// word per node and rebuilds the candidate classes.
    fn stamp_pending(&mut self) {
        let patterns = std::mem::take(&mut self.pending);
        // New input words from the patterns (missing high lanes = 0).
        for (k, sig) in self.input_sigs.iter_mut().enumerate() {
            let mut w = 0u64;
            for (lane, p) in patterns.iter().enumerate() {
                if p.get(k).copied().unwrap_or(false) {
                    w |= 1u64 << lane;
                }
            }
            sig.push(w);
        }
        self.sig_len += 1;
        // Re-simulate the whole reduced graph for the new word.
        for idx in 0..self.sigs.len() {
            let w = match self.red.node(Lit::new(idx, false)) {
                Node::Const => 0,
                Node::Input(k) => self.input_sigs[k as usize][self.sig_len - 1],
                Node::And(a, b) => {
                    self.sig_word(a, self.sig_len - 1) & self.sig_word(b, self.sig_len - 1)
                }
            };
            self.sigs[idx].push(w);
        }
        self.rebuild_classes();
    }

    fn rebuild_classes(&mut self) {
        self.ensure_sigs();
        self.classes.clear();
        let members = self.class_members.clone();
        for m in members {
            let (key, _) = normalize(&self.sigs[m.node()]);
            self.classes.entry(key).or_default().push(m);
        }
    }

    /// Proves or refutes `a == b` with two assumption-based solver
    /// calls (`a ∧ ¬b` unsat and `¬a ∧ b` unsat ⇒ equal).
    fn prove_eq(&mut self, a: Lit, b: Lit, budget: u64) -> Proof {
        self.enc.encode(&self.red, a);
        self.enc.encode(&self.red, b);
        let sa = self.enc.lit_of(a);
        let sb = self.enc.lit_of(b);
        for (x, y) in [(sa, !sb), (!sa, sb)] {
            match self.enc.solver.solve(&[x, y], budget) {
                SatResult::Unsat => {}
                SatResult::Unknown => return Proof::Unknown,
                SatResult::Sat => {
                    // Inputs outside the encoded cone read `false`.
                    let pattern = self
                        .red_inputs
                        .iter()
                        .map(|&l| self.enc.model_lit(l))
                        .collect();
                    self.enc.solver.retract();
                    return Proof::Diff(pattern);
                }
            }
        }
        Proof::Equal
    }
}

/// Phase-normalizes a signature: complemented when pattern 0 would
/// read true, so a node and its complement share a class key.
fn normalize(sig: &[u64]) -> (Vec<u64>, bool) {
    if sig.first().copied().unwrap_or(0) & 1 == 1 {
        (sig.iter().map(|w| !w).collect(), true)
    } else {
        (sig.to_vec(), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::TRUE;

    fn opts() -> CecOptions {
        CecOptions::default()
    }

    #[test]
    fn identical_functions_prove_by_hash() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x = g.xor(a, b);
        let y = g.xor(b, a);
        let (res, stats) = check_pairs(&g, &[(x, y)], &["y".into()], &opts()).expect("conclusive");
        assert_eq!(res, CecResult::Equivalent);
        assert_eq!(stats.outputs_by_hash, 1, "no SAT needed");
    }

    #[test]
    fn different_structure_same_function_proves() {
        let mut g = Aig::new();
        let ins: Vec<Lit> = (0..4).map(|_| g.input()).collect();
        // Majority via two different factorings.
        let ab = g.and(ins[0], ins[1]);
        let cd = g.and(ins[2], ins[3]);
        let f1 = g.or(ab, cd);
        // f2 = !( !(a&b) & !(c&d) ) built through lut on same vars.
        // lut init for (i0&i1)|(i2&i3) over 4 inputs:
        let mut init = 0u64;
        for pat in 0..16u64 {
            let a = pat & 1 == 1;
            let b = pat & 2 != 0;
            let c = pat & 4 != 0;
            let d = pat & 8 != 0;
            if (a && b) || (c && d) {
                init |= 1 << pat;
            }
        }
        let f2 = g.lut(init, &ins);
        let (res, _) = check_pairs(&g, &[(f1, f2)], &["f".into()], &opts()).expect("conclusive");
        assert_eq!(res, CecResult::Equivalent);
    }

    #[test]
    fn inequivalent_yields_checked_counterexample() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let and = g.and(a, b);
        let or = g.or(a, b);
        let (res, _) = check_pairs(&g, &[(and, or)], &["f".into()], &opts()).expect("conclusive");
        let CecResult::Counterexample(cex) = res else {
            panic!("and vs or must differ");
        };
        assert_ne!(cex.golden_value, cex.revised_value);
        // The distinguishing pattern: exactly one of a,b set.
        assert_ne!(cex.inputs[0], cex.inputs[1]);
    }

    #[test]
    fn constant_collapse() {
        let mut g = Aig::new();
        let a = g.input();
        let t = g.or(a, !a); // tautology
        let (res, _) = check_pairs(&g, &[(t, TRUE)], &["t".into()], &opts()).expect("conclusive");
        assert_eq!(res, CecResult::Equivalent);
    }

    #[test]
    fn sweep_merges_hidden_equivalences() {
        // Build two structurally different adders' carry chains and
        // confirm merged > 0 on at least the output level.
        let mut g = Aig::new();
        let xs: Vec<Lit> = (0..6).map(|_| g.input()).collect();
        // sum via xor tree (balanced) vs chain.
        let t1 = g.xor(xs[0], xs[1]);
        let t2 = g.xor(xs[2], xs[3]);
        let t3 = g.xor(xs[4], xs[5]);
        let t12 = g.xor(t1, t2);
        let balanced = g.xor(t12, t3);
        let mut chain = xs[0];
        for &x in &xs[1..] {
            chain = g.xor(chain, x);
        }
        let (res, stats) =
            check_pairs(&g, &[(balanced, chain)], &["p".into()], &opts()).expect("conclusive");
        assert_eq!(res, CecResult::Equivalent);
        assert!(
            stats.outputs_by_hash == 1 || stats.merged > 0 || stats.sat_queries > 0,
            "equivalence must be discharged somewhere: {stats:?}"
        );
    }
}
