//! And-Inverter Graphs with structural hashing, constant folding and
//! two-level rewriting.
//!
//! The AIG is the engine's normal form: every combinational cone —
//! LUT truth tables via Shannon cofactor expansion, carry/mux/memory
//! primitives via their two-valued semantics — lowers to two-input
//! AND nodes plus edge inverters. Node 0 is the constant-false
//! source; inputs follow; AND nodes are appended in topological
//! order, so a single forward pass evaluates the whole graph.
//!
//! Literals pack a node index and an inversion bit (`node << 1 |
//! neg`), mirroring the AIGER convention. Structural hashing
//! guarantees at most one AND node per unordered fanin pair, and the
//! constructor applies constant folding plus the classic two-level
//! rewrites (contradiction, containment, substitution) so trivially
//! equal cones collapse before SAT ever runs.

use std::collections::HashMap;

/// The number of 64-bit words in one simulation signature: 256
/// parallel random patterns per pass, matching the compiled
/// simulator's plane width.
pub const SIG_WORDS: usize = 4;

/// One 256-pattern simulation word.
pub type SigWord = [u64; SIG_WORDS];

/// An AIG literal: node index shifted left once, low bit set when the
/// edge is inverted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub u32);

/// The constant-false literal (node 0, plain).
pub const FALSE: Lit = Lit(0);
/// The constant-true literal (node 0, inverted).
pub const TRUE: Lit = Lit(1);

impl Lit {
    /// The node this literal points at.
    #[must_use]
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// `true` when the edge is inverted.
    #[must_use]
    pub fn negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// Builds a literal from a node index and inversion flag.
    #[must_use]
    pub fn new(node: usize, negated: bool) -> Self {
        Lit(((node as u32) << 1) | u32::from(negated))
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// One AIG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// The constant-false source (always node 0).
    Const,
    /// A free input, numbered in creation order.
    Input(u32),
    /// Two-input AND of the fanin literals (`a <= b` canonically).
    And(Lit, Lit),
}

/// An And-Inverter Graph under construction.
#[derive(Debug, Clone, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    /// Structural hash: canonical fanin pair → existing AND literal.
    strash: HashMap<(Lit, Lit), Lit>,
    num_inputs: u32,
}

impl Aig {
    /// An empty graph holding only the constant node.
    #[must_use]
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::Const],
            strash: HashMap::new(),
            num_inputs: 0,
        }
    }

    /// Total node count (constant + inputs + AND nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph holds only the constant node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of free inputs created so far.
    #[must_use]
    pub fn num_inputs(&self) -> u32 {
        self.num_inputs
    }

    /// Number of AND nodes.
    #[must_use]
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::And(..)))
            .count()
    }

    /// The node a literal points at.
    #[must_use]
    pub fn node(&self, lit: Lit) -> Node {
        self.nodes[lit.node()]
    }

    /// Creates a fresh free input and returns its plain literal.
    pub fn input(&mut self) -> Lit {
        let id = self.nodes.len();
        self.nodes.push(Node::Input(self.num_inputs));
        self.num_inputs += 1;
        Lit::new(id, false)
    }

    /// AND of two literals with constant folding, two-level rewriting
    /// and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant folding and trivial cases.
        if a == FALSE || b == FALSE || a == !b {
            return FALSE;
        }
        if a == TRUE {
            return b;
        }
        if b == TRUE || a == b {
            return a;
        }
        if let Some(lit) = self.rewrite(a, b) {
            return lit;
        }
        // Canonical order for the structural hash.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&lit) = self.strash.get(&(a, b)) {
            return lit;
        }
        let id = self.nodes.len();
        self.nodes.push(Node::And(a, b));
        let lit = Lit::new(id, false);
        self.strash.insert((a, b), lit);
        lit
    }

    /// Two-level rewriting: inspects one structural level below the
    /// new node's fanins for contradiction, containment and
    /// substitution patterns. Returns the simplified literal when a
    /// rule fires.
    fn rewrite(&mut self, a: Lit, b: Lit) -> Option<Lit> {
        if let Some(lit) = self.rewrite_one(a, b) {
            return Some(lit);
        }
        self.rewrite_one(b, a)
    }

    /// Rules keyed on `f`'s fanin structure against the sibling `g`.
    fn rewrite_one(&mut self, f: Lit, g: Lit) -> Option<Lit> {
        let Node::And(x, y) = self.nodes[f.node()] else {
            return None;
        };
        if !f.negated() {
            // f = x & y.
            if g == !x || g == !y {
                // Contradiction: (x & y) & !x = 0.
                return Some(FALSE);
            }
            if g == x || g == y {
                // Containment: (x & y) & x = x & y.
                return Some(f);
            }
            // Cross-level contradiction/containment against g's fanins.
            if let Node::And(u, v) = self.nodes[g.node()] {
                if !g.negated() {
                    if x == !u || x == !v || y == !u || y == !v {
                        // (x & y) & (u & v) with clashing fanins.
                        return Some(FALSE);
                    }
                } else if (x == u && y == v) || (x == v && y == u) {
                    // (x & y) & !(x & y) = 0.
                    return Some(FALSE);
                }
            }
        } else {
            // f = !(x & y).
            if g == !x || g == !y {
                // !(x & y) is implied by !x: !(x&y) & !x = !x.
                return Some(g);
            }
            if g == x {
                // Substitution: x & !(x & y) = x & !y.
                let ny = !y;
                return Some(self.and(g, ny));
            }
            if g == y {
                let nx = !x;
                return Some(self.and(g, nx));
            }
        }
        None
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// XOR as two-level AND/OR.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let l = self.and(a, !b);
        let r = self.and(!a, b);
        self.or(l, r)
    }

    /// 2:1 mux: `sel ? t : e`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let hi = self.and(sel, t);
        let lo = self.and(!sel, e);
        self.or(hi, lo)
    }

    /// AND over a slice (TRUE for the empty slice).
    pub fn and_all(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = TRUE;
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// OR over a slice (FALSE for the empty slice).
    pub fn or_all(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = FALSE;
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// XOR over a slice (FALSE for the empty slice).
    pub fn xor_all(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = FALSE;
        for &l in lits {
            acc = self.xor(acc, l);
        }
        acc
    }

    /// A `k`-input LUT via Shannon cofactor expansion on the highest
    /// input: bit `i` of `init` is the output for input pattern `i`
    /// (input 0 is the least-significant address bit).
    pub fn lut(&mut self, init: u64, inputs: &[Lit]) -> Lit {
        let k = inputs.len();
        debug_assert!(k <= 6, "LUT wider than 6 inputs");
        if k == 0 {
            return if init & 1 == 1 { TRUE } else { FALSE };
        }
        // Each cofactor table holds 2^(k-1) bits.
        let half = 1u32 << (k - 1);
        let mask = if half == 64 {
            u64::MAX
        } else {
            (1u64 << half) - 1
        };
        let lo = init & mask;
        let hi = (init >> half) & mask;
        if lo == hi {
            // The top input is a don't-care.
            return self.lut(lo, &inputs[..k - 1]);
        }
        let e = self.lut(lo, &inputs[..k - 1]);
        let t = self.lut(hi, &inputs[..k - 1]);
        self.mux(inputs[k - 1], t, e)
    }

    /// Evaluates every node over 256 parallel input patterns.
    /// `input_words[i]` supplies the patterns for input `i`; the
    /// returned vector holds one [`SigWord`] per node.
    #[must_use]
    pub fn simulate(&self, input_words: &[SigWord]) -> Vec<SigWord> {
        debug_assert_eq!(input_words.len(), self.num_inputs as usize);
        let mut sig = vec![[0u64; SIG_WORDS]; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            match *node {
                Node::Const => {} // stays all-zero (false)
                Node::Input(k) => sig[i] = input_words[k as usize],
                Node::And(a, b) => {
                    let wa = word_of(&sig, a);
                    let wb = word_of(&sig, b);
                    for w in 0..SIG_WORDS {
                        sig[i][w] = wa[w] & wb[w];
                    }
                }
            }
        }
        sig
    }

    /// Evaluates a single literal over one two-valued input
    /// assignment (`inputs[i]` is the value of input `i`).
    #[must_use]
    pub fn eval(&self, lit: Lit, inputs: &[bool]) -> bool {
        let mut vals = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            vals[i] = match *node {
                Node::Const => false,
                Node::Input(k) => inputs[k as usize],
                Node::And(a, b) => (vals[a.node()] ^ a.negated()) && (vals[b.node()] ^ b.negated()),
            };
        }
        vals[lit.node()] ^ lit.negated()
    }
}

/// A node's signature word adjusted for the literal's inversion.
#[must_use]
pub fn word_of(sig: &[SigWord], lit: Lit) -> SigWord {
    let mut w = sig[lit.node()];
    if lit.negated() {
        for x in &mut w {
            *x = !*x;
        }
    }
    w
}

/// The xorshift64 generator behind the random simulation signatures
/// (seed it odd: zero is a fixed point).
pub(crate) struct XorShift(pub(crate) u64);

impl XorShift {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut g = Aig::new();
        let a = g.input();
        assert_eq!(g.and(a, FALSE), FALSE);
        assert_eq!(g.and(FALSE, a), FALSE);
        assert_eq!(g.and(a, TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), FALSE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_is_commutative() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let ab = g.and(a, b);
        let ba = g.and(b, a);
        assert_eq!(ab, ba);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn two_level_rules() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let ab = g.and(a, b);
        // Containment: (a&b) & a = a&b.
        assert_eq!(g.and(ab, a), ab);
        // Contradiction: (a&b) & !a = 0.
        assert_eq!(g.and(ab, !a), FALSE);
        // Complement of shared structure: (a&b) & !(a&b) handled by a==!b.
        assert_eq!(g.and(ab, !ab), FALSE);
        // Implication: !(a&b) & !a = !a.
        assert_eq!(g.and(!ab, !a), !a);
        // Substitution: a & !(a&b) = a & !b.
        let sub = g.and(a, !ab);
        let direct = g.and(a, !b);
        assert_eq!(sub, direct);
    }

    #[test]
    fn cross_level_contradiction() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let ab = g.and(a, b);
        let nac = g.and(!a, c);
        assert_eq!(g.and(ab, nac), FALSE, "(a&b) & (!a&c) = 0");
    }

    #[test]
    fn xor_and_mux_truth_tables() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let s = g.input();
        let x = g.xor(a, b);
        let m = g.mux(s, a, b);
        for bits in 0..8u32 {
            let ins = [bits & 1 == 1, bits & 2 != 0, bits & 4 != 0];
            assert_eq!(g.eval(x, &ins), ins[0] ^ ins[1]);
            assert_eq!(g.eval(m, &ins), if ins[2] { ins[0] } else { ins[1] });
        }
    }

    #[test]
    fn lut_matches_truth_table_exhaustively() {
        // Every 3-input truth table, every input pattern.
        for init in 0..256u64 {
            let mut g = Aig::new();
            let ins: Vec<Lit> = (0..3).map(|_| g.input()).collect();
            let f = g.lut(init, &ins);
            for pat in 0..8u64 {
                let vals = [pat & 1 == 1, pat & 2 != 0, pat & 4 != 0];
                let want = (init >> pat) & 1 == 1;
                assert_eq!(g.eval(f, &vals), want, "init={init:#x} pat={pat}");
            }
        }
    }

    #[test]
    fn simulate_agrees_with_eval() {
        let mut g = Aig::new();
        let ins: Vec<Lit> = (0..4).map(|_| g.input()).collect();
        let f = g.lut(0xbeef, &ins);
        // Drive the 16 exhaustive patterns in the low 16 lanes.
        let mut words = vec![[0u64; SIG_WORDS]; 4];
        for pat in 0..16u64 {
            for (i, w) in words.iter_mut().enumerate() {
                w[0] |= ((pat >> i) & 1) << pat;
            }
        }
        let sig = g.simulate(&words);
        let w = word_of(&sig, f);
        for pat in 0..16u64 {
            let vals = [pat & 1 == 1, pat & 2 != 0, pat & 4 != 0, pat & 8 != 0];
            assert_eq!((w[0] >> pat) & 1 == 1, g.eval(f, &vals));
        }
    }
}
