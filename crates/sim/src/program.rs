//! Lowering of a compiled netlist into flat, cache-friendly bytecode.
//!
//! The compiled model, a [`NetlistGraph`], is a vector of nodes that
//! each carry a `PrimKind` enum a hot loop would re-dispatch on,
//! including a full truth-table cofactor analysis per LUT evaluation.
//! A [`Program`] removes all of that:
//!
//! - **Struct-of-arrays node storage.** One contiguous array per field
//!   (`tags`, `outs`, `arg_base`, `aux`), with every node's input
//!   plane indices pre-resolved into one flat `args: Vec<u32>` arena.
//!   The executor's inner loop walks parallel arrays with
//!   branch-predictable tag dispatch and touches no `HashMap`, no
//!   `Vec<NetId>`, and no string.
//! - **LUT truth tables in one contiguous array.** Each `LutN` node's
//!   `aux` indexes `lut_init`; evaluation is an iterative bottom-up
//!   mux tree (bit-exact with the scalar simulator's cofactor
//!   analysis).
//! - **Pre-split sequential programs.** Flip-flops, SRL16s and RAM16s
//!   are lowered into separate flat op lists with resolved net and
//!   state-slot indices, so the clock-edge loop is three tight passes
//!   instead of an enum match per element.
//!
//! A `Program` is immutable after lowering and shared between sweep
//! shards behind an `Arc`, so spawning a shard costs one plane-arena
//! allocation instead of a deep clone of names and node vectors. It
//! keeps the graph it was lowered from, behind an `Arc` too, for names
//! and ports.

use std::sync::Arc;

use ipd_hdl::Logic;
use ipd_techlib::PrimKind;

use crate::graph::{CombKind, NetlistGraph, SeqKind};

/// Sentinel for "no net" in optional operand slots (clock enables,
/// reset controls).
pub(crate) const NO_NET: u32 = u32::MAX;

/// Bytecode operation tags. Arity is implied by the tag, so dispatch
/// is a single jump with no per-node argument-count load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum OpTag {
    /// Four-state NOT.
    Not,
    /// Buffer pessimism (`X`/`Z` → `X`).
    Buf,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 4-input AND.
    And4,
    /// 2-input OR.
    Or2,
    /// 3-input OR.
    Or3,
    /// 4-input OR.
    Or4,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 4-input NOR.
    Nor4,
    /// 2-input XOR.
    Xor2,
    /// 3-input XOR.
    Xor3,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 mux, args `[i0, i1, sel]`.
    Mux2,
    /// Carry mux, args `[ci, di, s]`; `s=1` selects the carry-in.
    Muxcy,
    /// Carry XOR.
    Xorcy,
    /// Multiplier AND.
    MultAnd,
    /// 1-input LUT; `aux` indexes `lut_init`.
    Lut1,
    /// 2-input LUT; `aux` indexes `lut_init`.
    Lut2,
    /// 3-input LUT; `aux` indexes `lut_init`.
    Lut3,
    /// 4-input LUT (also ROM16x1); `aux` indexes `lut_init`.
    Lut4,
    /// Asynchronous 16×1 word read (SRL tap / RAM read), args are the
    /// 4 address bits LSB-first; `aux` is the word-state index.
    WordRead,
}

/// One lowered flip-flop update.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FfOp {
    /// Data input plane index.
    pub d: u32,
    /// Clock-enable plane index, or [`NO_NET`].
    pub ce: u32,
    /// Clear/reset plane index, or [`NO_NET`]. Async clear and sync
    /// reset behave identically at cycle granularity.
    pub ctl: u32,
    /// Output (q) plane index — doubles as the state storage.
    pub q: u32,
}

/// One lowered shift-register update.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SrlOp {
    /// Word-state index.
    pub word: u32,
    /// Data input plane index.
    pub d: u32,
    /// Clock-enable plane index.
    pub ce: u32,
}

/// One lowered RAM write.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RamOp {
    /// Word-state index.
    pub word: u32,
    /// Data input plane index.
    pub d: u32,
    /// Write-enable plane index.
    pub we: u32,
    /// Address plane indices, LSB-first.
    pub addr: [u32; 4],
}

/// Where a compile-time state index lives in the executor: flip-flop
/// states are stored in their q net's plane, words in the word arena.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StateSlot {
    /// Index into [`Program::ffs`].
    Ff(u32),
    /// Index into the word-state arena.
    Word(u32),
}

/// A lowered, immutable simulation program. See the module docs for
/// the layout rationale.
#[derive(Debug)]
pub(crate) struct Program {
    /// The compiled model this program was lowered from. Its nodes
    /// `[0, acyclic_prefix)` settle in one pass; the remainder (empty
    /// when levelized) needs fixpoint iteration.
    pub graph: Arc<NetlistGraph>,

    // Struct-of-arrays combinational node storage, in evaluation
    // order. All vectors below are parallel (indexed by node).
    pub tags: Vec<OpTag>,
    pub outs: Vec<u32>,
    pub arg_base: Vec<u32>,
    pub aux: Vec<u32>,
    /// Flat operand arena: every node's input plane indices.
    pub args: Vec<u32>,
    /// Contiguous LUT/ROM truth tables, indexed by `aux`.
    pub lut_init: Vec<u16>,

    // Sequential programs.
    pub ffs: Vec<FfOp>,
    /// Power-on value per flip-flop, parallel to `ffs`.
    pub ff_init: Vec<Logic>,
    pub srls: Vec<SrlOp>,
    pub rams: Vec<RamOp>,
    /// Power-on contents per word state.
    pub word_init: Vec<u16>,
    /// Compile-time state index → executor storage slot, parallel to
    /// the graph's `state_paths`.
    pub state_slots: Vec<StateSlot>,
}

impl Program {
    /// Lowers a compiled netlist into bytecode.
    pub(crate) fn lower(graph: Arc<NetlistGraph>) -> Arc<Program> {
        // Sequential programs first: word reads in the combinational
        // network reference word-state indices assigned here.
        let mut ffs = Vec::new();
        let mut ff_init = Vec::new();
        let mut srls = Vec::new();
        let mut rams = Vec::new();
        let mut word_init = Vec::new();
        let mut state_slots = Vec::with_capacity(graph.seq.len());
        for elem in &graph.seq {
            match elem {
                SeqKind::Ff {
                    d,
                    ce,
                    control,
                    init,
                    q,
                } => {
                    state_slots.push(StateSlot::Ff(ffs.len() as u32));
                    ffs.push(FfOp {
                        d: d.index() as u32,
                        ce: ce.map_or(NO_NET, |n| n.index() as u32),
                        ctl: control.map_or(NO_NET, |(_, n)| n.index() as u32),
                        q: q.index() as u32,
                    });
                    ff_init.push(*init);
                }
                SeqKind::Srl16 { d, ce, init } => {
                    let word = word_init.len() as u32;
                    state_slots.push(StateSlot::Word(word));
                    word_init.push(*init);
                    srls.push(SrlOp {
                        word,
                        d: d.index() as u32,
                        ce: ce.index() as u32,
                    });
                }
                SeqKind::Ram16 { d, we, addr, init } => {
                    let word = word_init.len() as u32;
                    state_slots.push(StateSlot::Word(word));
                    word_init.push(*init);
                    rams.push(RamOp {
                        word,
                        d: d.index() as u32,
                        we: we.index() as u32,
                        addr: [
                            addr[0].index() as u32,
                            addr[1].index() as u32,
                            addr[2].index() as u32,
                            addr[3].index() as u32,
                        ],
                    });
                }
            }
        }

        // Combinational bytecode.
        let n = graph.eval_order.len();
        let mut tags = Vec::with_capacity(n);
        let mut outs = Vec::with_capacity(n);
        let mut arg_base = Vec::with_capacity(n);
        let mut aux = Vec::with_capacity(n);
        let mut args = Vec::new();
        let mut lut_init = Vec::new();
        for node in &graph.eval_order {
            let (tag, node_aux) = match &node.kind {
                CombKind::Prim(kind) => lower_prim(kind, &mut lut_init),
                CombKind::SrlRead { seq } | CombKind::RamRead { seq } => {
                    let StateSlot::Word(word) = state_slots[*seq] else {
                        unreachable!("word reads target word states")
                    };
                    (OpTag::WordRead, word)
                }
            };
            tags.push(tag);
            outs.push(node.output.index() as u32);
            arg_base.push(args.len() as u32);
            aux.push(node_aux);
            args.extend(node.inputs.iter().map(|n| n.index() as u32));
            debug_assert_eq!(
                args.len() - *arg_base.last().expect("just pushed") as usize,
                tag.arity(),
                "node arity matches its tag"
            );
        }

        Arc::new(Program {
            graph,
            tags,
            outs,
            arg_base,
            aux,
            args,
            lut_init,
            ffs,
            ff_init,
            srls,
            rams,
            word_init,
            state_slots,
        })
    }

    /// Number of word states (SRL16 + RAM16).
    pub(crate) fn word_count(&self) -> usize {
        self.word_init.len()
    }
}

impl OpTag {
    /// Number of operand slots this tag consumes from the arena.
    pub(crate) fn arity(self) -> usize {
        match self {
            OpTag::Not | OpTag::Buf | OpTag::Lut1 => 1,
            OpTag::And2
            | OpTag::Or2
            | OpTag::Nand2
            | OpTag::Nor2
            | OpTag::Xor2
            | OpTag::Xnor2
            | OpTag::Xorcy
            | OpTag::MultAnd
            | OpTag::Lut2 => 2,
            OpTag::And3
            | OpTag::Or3
            | OpTag::Nand3
            | OpTag::Nor3
            | OpTag::Xor3
            | OpTag::Mux2
            | OpTag::Muxcy
            | OpTag::Lut3 => 3,
            OpTag::And4
            | OpTag::Or4
            | OpTag::Nand4
            | OpTag::Nor4
            | OpTag::Lut4
            | OpTag::WordRead => 4,
        }
    }
}

/// Maps a combinational primitive to its tag, interning LUT truth
/// tables into the contiguous `lut_init` array.
fn lower_prim(kind: &PrimKind, lut_init: &mut Vec<u16>) -> (OpTag, u32) {
    let mut lut = |init: u16| {
        let idx = lut_init.len() as u32;
        lut_init.push(init);
        idx
    };
    match kind {
        PrimKind::Inv => (OpTag::Not, 0),
        PrimKind::Buf | PrimKind::Ibuf | PrimKind::Obuf | PrimKind::Bufg => (OpTag::Buf, 0),
        PrimKind::And(2) => (OpTag::And2, 0),
        PrimKind::And(3) => (OpTag::And3, 0),
        PrimKind::And(_) => (OpTag::And4, 0),
        PrimKind::Or(2) => (OpTag::Or2, 0),
        PrimKind::Or(3) => (OpTag::Or3, 0),
        PrimKind::Or(_) => (OpTag::Or4, 0),
        PrimKind::Nand(2) => (OpTag::Nand2, 0),
        PrimKind::Nand(3) => (OpTag::Nand3, 0),
        PrimKind::Nand(_) => (OpTag::Nand4, 0),
        PrimKind::Nor(2) => (OpTag::Nor2, 0),
        PrimKind::Nor(3) => (OpTag::Nor3, 0),
        PrimKind::Nor(_) => (OpTag::Nor4, 0),
        PrimKind::Xor(3) => (OpTag::Xor3, 0),
        PrimKind::Xor(_) => (OpTag::Xor2, 0),
        PrimKind::Xnor2 => (OpTag::Xnor2, 0),
        PrimKind::Mux2 => (OpTag::Mux2, 0),
        PrimKind::Muxcy => (OpTag::Muxcy, 0),
        PrimKind::Xorcy => (OpTag::Xorcy, 0),
        PrimKind::MultAnd => (OpTag::MultAnd, 0),
        PrimKind::Lut { inputs: 1, init } => (OpTag::Lut1, lut(*init)),
        PrimKind::Lut { inputs: 2, init } => (OpTag::Lut2, lut(*init)),
        PrimKind::Lut { inputs: 3, init } => (OpTag::Lut3, lut(*init)),
        PrimKind::Lut { init, .. } => (OpTag::Lut4, lut(*init)),
        PrimKind::Rom16x1 { init } => (OpTag::Lut4, lut(*init)),
        PrimKind::Gnd
        | PrimKind::Vcc
        | PrimKind::Ff { .. }
        | PrimKind::Srl16 { .. }
        | PrimKind::Ram16x1 { .. } => {
            unreachable!("constants and sequential primitives are not evaluation nodes")
        }
    }
}
