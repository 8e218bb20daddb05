//! The four-state kernels, written once for both engines that model
//! `X`: the compiled simulator and `ipd-verify`'s never-`X` prover.
//!
//! A four-state value is a [`Rail`]: a value word and an unknown word,
//! `(v, u)` = `(0,0)` → `0`, `(1,0)` → `1`, `(0,1)` → `X`, `(1,1)` →
//! `Z`. A [`RailOps`] carrier supplies the word and its Boolean
//! operations, and every kernel is generic over it. The compiled
//! engine's plane carrier (`exec.rs`) has `[u64; 4]` words, so one call
//! evaluates 256 stimulus lanes; `ipd-verify`'s AIG has literal words,
//! so the same call builds the dual-rail cone that `prove_never_x`
//! hands to the SAT solver.
//!
//! [`PrimKind::eval_comb`](ipd_techlib::PrimKind::eval_comb) and the
//! scalar [`Simulator`](crate::Simulator) stay independent of this
//! module: the tests of both carriers check the kernels against them.
//!
//! Each kernel issues its operations in one fixed order. An AIG numbers
//! its nodes in creation order, and that numbering sets the SAT
//! variable order and so the witnesses the prover returns.

use ipd_hdl::Logic;

/// A word type and its bitwise operations: what a [`Rail`] is made of.
pub trait RailOps {
    /// One rail word: a lane set, or a literal.
    type Word: Copy;
    /// The word with every bit false.
    const FALSE: Self::Word;
    /// The word with every bit true.
    const TRUE: Self::Word;
    /// Bitwise AND.
    fn and(&mut self, a: Self::Word, b: Self::Word) -> Self::Word;
    /// Bitwise OR.
    fn or(&mut self, a: Self::Word, b: Self::Word) -> Self::Word;
    /// Bitwise XOR.
    fn xor(&mut self, a: Self::Word, b: Self::Word) -> Self::Word;
    /// Bitwise complement.
    fn not(&self, a: Self::Word) -> Self::Word;
}

/// One four-state value per word bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rail<W> {
    /// Value word.
    pub v: W,
    /// Unknown word (set for `X` and `Z`).
    pub u: W,
}

/// Three masks over one word: a control input's `(known-1, known-0,
/// unknown)`, or a clock edge's `(load, hold, poison)`.
type Masks<W> = (W, W, W);

impl<W: Copy> Rail<W> {
    /// The same logic value in every bit.
    #[inline]
    pub fn splat<O: RailOps<Word = W>>(value: Logic) -> Self {
        let word = |bit: bool| if bit { O::TRUE } else { O::FALSE };
        let v = word(matches!(value, Logic::One | Logic::Z));
        let u = word(!value.is_driven());
        Rail { v, u }
    }

    /// Bits holding a driven 0.
    #[inline]
    fn known0<O: RailOps<Word = W>>(self, o: &mut O) -> W {
        o.and(o.not(self.v), o.not(self.u))
    }

    /// Bits holding a driven 1.
    #[inline]
    fn known1<O: RailOps<Word = W>>(self, o: &mut O) -> W {
        o.and(self.v, o.not(self.u))
    }

    /// A control input's masks: known-1, known-0, unknown.
    #[inline]
    fn ctl_masks<O: RailOps<Word = W>>(self, o: &mut O) -> Masks<W> {
        (self.known1(o), self.known0(o), self.u)
    }

    /// Four-state NOT: `X`/`Z` → `X`.
    #[inline]
    pub fn not<O: RailOps<Word = W>>(self, o: &mut O) -> Self {
        let v = self.known0(o);
        Rail { v, u: self.u }
    }

    /// Buffer pessimism: driven values pass, `X`/`Z` → `X`.
    #[inline]
    pub fn pess<O: RailOps<Word = W>>(self, o: &mut O) -> Self {
        let v = self.known1(o);
        Rail { v, u: self.u }
    }

    /// Four-state AND: a driven 0 dominates any unknown.
    #[inline]
    pub fn and<O: RailOps<Word = W>>(self, o: &mut O, b: Self) -> Self {
        let (a0, b0) = (self.known0(o), b.known0(o));
        let zero = o.or(a0, b0);
        let (a1, b1) = (self.known1(o), b.known1(o));
        let one = o.and(a1, b1);
        let known = o.or(zero, one);
        let u = o.not(known);
        Rail { v: one, u }
    }

    /// Four-state OR: a driven 1 dominates any unknown.
    #[inline]
    pub fn or<O: RailOps<Word = W>>(self, o: &mut O, b: Self) -> Self {
        let (a1, b1) = (self.known1(o), b.known1(o));
        let one = o.or(a1, b1);
        let (a0, b0) = (self.known0(o), b.known0(o));
        let zero = o.and(a0, b0);
        let known = o.or(zero, one);
        let u = o.not(known);
        Rail { v: one, u }
    }

    /// Four-state XOR: known only when both inputs are driven.
    #[inline]
    pub fn xor<O: RailOps<Word = W>>(self, o: &mut O, b: Self) -> Self {
        let u = o.or(self.u, b.u);
        let x = o.xor(self.v, b.v);
        let v = o.and(x, o.not(u));
        Rail { v, u }
    }

    /// Four-state 2:1 select: `sel=0` → `d0`, `sel=1` → `d1` (both
    /// pessimized), unknown select → the common value when both data
    /// inputs are driven and agree, else `X`.
    #[inline]
    pub fn mux<O: RailOps<Word = W>>(o: &mut O, sel: Self, d0: Self, d1: Self) -> Self {
        let s0 = sel.known0(o);
        let s1 = sel.known1(o);
        let p0 = d0.pess(o);
        let p1 = d1.pess(o);
        let both_known = o.and(o.not(d0.u), o.not(d1.u));
        let differ = o.xor(d0.v, d1.v);
        let same = o.not(differ);
        let agree = o.and(both_known, same);
        let v0 = o.and(s0, p0.v);
        let v1 = o.and(s1, p1.v);
        let unknown_agree = o.and(sel.u, agree);
        let vu = o.and(unknown_agree, d0.v);
        let v = o.or(v0, v1);
        let v = o.or(v, vu);
        let u0 = o.and(s0, d0.u);
        let u1 = o.and(s1, d1.u);
        let uu = o.and(sel.u, o.not(agree));
        let u = o.or(u0, u1);
        let u = o.or(u, uu);
        Rail { v, u }
    }

    /// A LUT (or ROM) with truth table `init` over `sels` (input 0 is
    /// the least-significant address bit): 2:1 selects over the Shannon
    /// expansion tree, so every bit sees the scalar cofactor analysis.
    /// The tree is folded in post-order — the lowest cofactor pair
    /// first, each node as soon as both its halves exist.
    pub fn lut<O: RailOps<Word = W>>(o: &mut O, init: u16, sels: &[Self]) -> Self {
        let leaf = |i: usize| Self::splat::<O>(Logic::from_bool((init >> i) & 1 == 1));
        let n = sels.len();
        debug_assert!(n <= 4, "a 16-bit truth table has at most 4 inputs");
        if n == 0 {
            return leaf(0);
        }
        // `pending[l]` holds the finished level-`l` cofactor that waits
        // for its upper sibling; the root lands in `pending[n]`.
        let mut pending = [leaf(0); 5];
        for pair in 0..1usize << (n - 1) {
            let mut node = Self::mux(o, sels[0], leaf(2 * pair), leaf(2 * pair + 1));
            let mut level = 1;
            while level < n && (pair >> (level - 1)) & 1 == 1 {
                node = Self::mux(o, sels[level], pending[level], node);
                level += 1;
            }
            pending[level] = node;
        }
        pending[n]
    }

    /// Any unknown address bit.
    #[inline]
    fn any_unknown<O: RailOps<Word = W>>(o: &mut O, addr: &[Self; 4]) -> W {
        addr.iter().fold(O::FALSE, |unk, a| o.or(unk, a.u))
    }

    /// Bits whose address is known and equal to `idx`.
    #[inline]
    fn decode<O: RailOps<Word = W>>(o: &mut O, addr: &[Self; 4], idx: usize) -> W {
        let mut sel = O::TRUE;
        for (i, a) in addr.iter().enumerate() {
            let k = if (idx >> i) & 1 == 1 {
                a.known1(o)
            } else {
                a.known0(o)
            };
            sel = o.and(sel, k);
        }
        sel
    }

    /// Asynchronous 16×1 word read (SRL16 tap, RAM16 read) with an
    /// LSB-first 4-bit address. A known address selects its word bit;
    /// an address with any unknown bit reads the common value when all
    /// 16 word bits are driven and agree, else `X`.
    pub fn word_read<O: RailOps<Word = W>>(o: &mut O, addr: &[Self; 4], bits: &[Self; 16]) -> Self {
        let unk = Self::any_unknown(o, addr);
        let (mut v, mut u) = (O::FALSE, O::FALSE);
        for (idx, bit) in bits.iter().enumerate() {
            let sel = Self::decode(o, addr, idx);
            let sv = o.and(sel, bit.v);
            v = o.or(v, sv);
            let su = o.and(sel, bit.u);
            u = o.or(u, su);
        }
        let (mut agree1, mut agree0) = (O::TRUE, O::TRUE);
        for bit in bits {
            let k1 = bit.known1(o);
            agree1 = o.and(agree1, k1);
            let k0 = bit.known0(o);
            agree0 = o.and(agree0, k0);
        }
        let vk = o.and(v, o.not(unk));
        let vu = o.and(unk, agree1);
        let uk = o.and(u, o.not(unk));
        let any_agree = o.or(agree1, agree0);
        let uu = o.and(unk, o.not(any_agree));
        let (v, u) = (o.or(vk, vu), o.or(uk, uu));
        Rail { v, u }
    }

    /// One state bit's clock-edge choice under `(load, hold, poison)`
    /// masks: load `src`, keep `self`, or go unknown.
    #[inline]
    fn next<O: RailOps<Word = W>>(self, o: &mut O, masks: Masks<W>, src: Self) -> Self {
        let (load, hold, poison) = masks;
        let (a, b) = (o.and(load, src.v), o.and(hold, self.v));
        let v = o.or(a, b);
        let (a, b) = (o.and(load, src.u), o.and(hold, self.u));
        let u = o.or(a, b);
        let u = o.or(u, poison);
        Rail { v, u }
    }

    /// A flip-flop's next state from `cur`: a known-1 clock enable (or
    /// none) loads `d`, a known-0 one holds, an unknown one poisons.
    /// Then the clear/reset control clears on 1, keeps on 0 and poisons
    /// on unknown — identical for async clear and sync reset at cycle
    /// granularity.
    #[inline]
    pub fn ff_next<O: RailOps<Word = W>>(
        o: &mut O,
        cur: Self,
        d: Self,
        ce: Option<Self>,
        clear: Option<Self>,
    ) -> Self {
        let ce = match ce {
            None => (O::TRUE, O::FALSE, O::FALSE),
            Some(ce) => ce.ctl_masks(o),
        };
        let mut next = cur.next(o, ce, d);
        if let Some(clear) = clear {
            let (_, keep, poison) = clear.ctl_masks(o);
            next.v = o.and(next.v, keep);
            let held = o.and(next.u, keep);
            next.u = o.or(held, poison);
        }
        next
    }

    /// An SRL16 shift in place: under clock enable `ce` tap 0 loads `d`
    /// and every other tap its predecessor's pre-edge value.
    #[inline]
    pub fn srl_shift<O: RailOps<Word = W>>(o: &mut O, word: &mut [Self; 16], d: Self, ce: Self) {
        let ce = ce.ctl_masks(o);
        let mut src = d;
        for slot in word {
            let cur = *slot;
            *slot = cur.next(o, ce, src);
            src = cur;
        }
    }

    /// A RAM16 write in place: a known-1 write enable at a known address
    /// loads `d` into that bit and keeps the rest; a known-0 one keeps
    /// the word; an unknown one, or an enabled write at an unknown
    /// address, poisons the whole word.
    #[inline]
    pub fn ram_write<O: RailOps<Word = W>>(
        o: &mut O,
        word: &mut [Self; 16],
        d: Self,
        we: Self,
        addr: &[Self; 4],
    ) {
        let (we1, we0, weu) = we.ctl_masks(o);
        let addr_unk = Self::any_unknown(o, addr);
        let blind = o.and(we1, addr_unk);
        let poison = o.or(weu, blind);
        for (idx, slot) in word.iter_mut().enumerate() {
            let sel = Self::decode(o, addr, idx);
            let write = o.and(we1, sel);
            let elsewhere = o.and(o.not(addr_unk), o.not(sel));
            let keep = o.and(we1, elsewhere);
            let hold = o.or(we0, keep);
            *slot = slot.next(o, (write, hold, poison), d);
        }
    }
}
